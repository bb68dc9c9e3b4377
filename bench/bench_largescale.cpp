// Large-scale placement + prediction benchmark — the exit artifact for the
// scheduler hot path and the memoized prediction service (DESIGN.md,
// "Scheduler hot path" and "Prediction service").
//
// Replays a Philly-scale point — 550 servers / 2474 GPUs (the trace's
// heterogeneous footprint) with a saturating arrival stream — end-to-end
// under MLF-H twice:
//
//   A  prediction service   (the default configuration)
//   B  legacy cold-fit path (stateless curve refits)
//
// Both legs stream their JSONL event logs through an FNV-1a hash, so the
// benchmark *proves* the memoized, warm-started curve-fit chains changed
// no decision. Before them, the default configuration runs once more on
// its own, with no observer and nothing co-running, and its mean
// wall-clock per scheduling round is gated by a ceiling. B's / A's
// nm_objective_evals quotient is the measured curve-fit work reduction,
// and A's fit_wall_ms / run_wall_ms is the wall-clock share the predictor
// still costs — both are gated too. A second stage
// runs every registered scheduler at a mid-size point with the same two
// legs, so the byte-identical claim covers the whole registry rather than
// MLF-H alone.
//
// A weak-scaling leg runs MLF-H on the same fleet at offered load 0.45 with
// the arrival rate held constant, at 2.5k / 10k / 20k jobs (smoke: 2.5k /
// 5k): the trace grows, the live job set does not. Each point runs alone
// and reports the engine's own time per tick — run wall minus scheduling
// rounds minus curve fitting, over ticks. Full mode gates the largest /
// smallest ratio at 1.3 (per-tick engine work must not grow with trace
// length); smoke only reports it.
//
// All legs execute through the shared experiment runner on the pool
// (hashes and counters are simulation-deterministic, so parallelism
// cannot change them; only the real-clock measurements — the fit/run wall
// times — carry contention noise, and the wall-share gate is a ratio of
// two clocks inside the *same* run).
//
// Emits BENCH_largescale.json (with the predictor timing breakdown) and
// exits non-zero if any leg pair diverges or any gate fails. CI runs
// `--smoke` (same fleet, shorter stream, smaller matrix) and uploads the
// file.
//
// Usage: bench_largescale [--smoke] [--out FILE] [--threads N]
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "exp/parallel.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "sim/event_log.hpp"
#include "workload/model_zoo.hpp"
#include "workload/trace.hpp"

namespace {

using namespace mlfs;

/// Sink that FNV-1a-hashes everything written to it — compares
/// multi-million-line event streams without holding either in memory.
class HashStreamBuf : public std::streambuf {
 public:
  std::uint64_t hash() const { return hash_; }
  std::uint64_t bytes() const { return bytes_; }

 protected:
  int overflow(int ch) override {
    if (ch != traits_type::eof()) mix(static_cast<unsigned char>(ch));
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) mix(static_cast<unsigned char>(s[i]));
    return n;
  }

 private:
  void mix(unsigned char c) {
    hash_ = (hash_ ^ c) * 1099511628211ull;
    ++bytes_;
  }
  std::uint64_t hash_ = 1469598103934665603ull;
  std::uint64_t bytes_ = 0;
};

/// Per-run hashing observer bundle with stable addresses for the batch.
struct HashedRun {
  HashStreamBuf sink;
  std::unique_ptr<std::ostream> out;
  std::unique_ptr<JsonlEventLog> log;

  HashedRun() : out(std::make_unique<std::ostream>(&sink)),
                log(std::make_unique<JsonlEventLog>(*out)) {}
};

/// The Philly-scale leg: heterogeneous 550-server / 2474-GPU fleet, MLF-H,
/// arrival rate held at the saturating ~375 jobs/hour the full trace
/// averages, so host choice is measured under sustained overload.
exp::RunRequest philly_request(std::size_t jobs, double hours, bool service) {
  exp::RunRequest request;
  request.label = std::string(service ? "service" : "legacy-fit") + " philly-550";
  request.cluster.server_count = 550;
  request.cluster.total_gpus = 2474;
  request.cluster.gpus_per_server = 4;  // overridden by total_gpus
  request.trace.num_jobs = jobs;
  request.trace.duration_hours = hours;
  request.trace.seed = 2020;
  request.trace.max_gpu_request = 32;
  request.engine.seed = 2020 ^ 0xbeef;
  request.engine.predict.enabled = service;
  request.scheduler = "MLF-H";
  request.mlfs_config.heuristic_only = true;
  return request;
}

/// One mid-size matrix leg: every registered scheduler must stay
/// byte-identical with the prediction service on.
exp::RunRequest matrix_request(const std::string& scheduler, std::size_t servers,
                               std::size_t jobs, double hours, bool service) {
  exp::RunRequest request;
  request.label = std::string(service ? "service" : "legacy-fit") + " " + scheduler;
  request.cluster.server_count = servers;
  request.cluster.gpus_per_server = 4;
  request.trace.num_jobs = jobs;
  request.trace.duration_hours = hours;
  request.trace.seed = 1117;
  request.trace.max_gpu_request = 16;
  request.engine.seed = 1117 ^ 0xfeed;
  request.engine.predict.enabled = service;
  request.scheduler = scheduler;
  return request;
}

/// Weak-scaling points: Philly traces of each size with the same arrival
/// rate, set so the smallest trace's ideal GPU-seconds offer `kWeakLoad`
/// of the fleet (larger traces land within a few percent of it; each
/// point's offered load is reported). The horizon ends with the arrival
/// window, so every point measures the steady state with arrivals still
/// flowing rather than a drain tail whose length does not scale with the
/// trace; jobs still running then are censored.
constexpr double kWeakLoad = 0.45;
constexpr double kWeakGpus = 2474.0;

struct WeakPoint {
  exp::RunRequest request;
  double offered_load = 0.0;
};

std::vector<WeakPoint> weak_scaling_points(const std::vector<std::size_t>& job_counts) {
  std::vector<WeakPoint> points;
  double scale = 0.0;  // arrival-time stretch, fixed by the first point
  for (const std::size_t jobs : job_counts) {
    WeakPoint point;
    exp::RunRequest& request = point.request;
    request.label = "weak-scaling " + std::to_string(jobs);
    request.cluster.server_count = 550;
    request.cluster.total_gpus = static_cast<std::size_t>(kWeakGpus);
    request.trace.num_jobs = jobs;
    // The generator spreads arrivals uniformly (diurnally modulated) over
    // this window, so a window proportional to the job count keeps the
    // arrival rate constant.
    request.trace.duration_hours = 20.0 * static_cast<double>(jobs) / 2500.0;
    request.trace.seed = 4500;
    request.trace.max_gpu_request = 32;
    request.engine.seed = 4500 ^ 0xbeef;
    request.scheduler = "MLF-H";
    request.mlfs_config.heuristic_only = true;
    std::vector<JobSpec> specs = PhillyTraceGenerator(request.trace).generate();
    double gpu_seconds = 0.0;
    for (const JobSpec& spec : specs) {
      gpu_seconds +=
          spec.gpu_request * ModelZoo::instantiate(spec, 0).job.estimated_execution_seconds();
    }
    const double window = hours(request.trace.duration_hours);
    if (points.empty()) scale = gpu_seconds / (kWeakGpus * kWeakLoad) / window;
    for (JobSpec& spec : specs) spec.arrival *= scale;
    point.offered_load = gpu_seconds / (kWeakGpus * scale * window);
    request.engine.max_sim_time = scale * window;
    request.workload = std::make_shared<const std::vector<JobSpec>>(std::move(specs));
    points.push_back(std::move(point));
  }
  return points;
}

/// Engine self time per tick: everything run() spent outside the
/// scheduling rounds and the curve fits, over the ticks (one round each).
double engine_ms_per_tick(const RunMetrics& m) {
  if (m.sched_rounds == 0) return 0.0;
  const double sched_ms = m.sched_overhead_ms * static_cast<double>(m.sched_rounds);
  return (m.run_wall_ms - sched_ms - m.fit_wall_ms) / static_cast<double>(m.sched_rounds);
}

bool identical(const HashedRun& a, const HashedRun& b) {
  return a.sink.hash() == b.sink.hash() && a.sink.bytes() == b.sink.bytes() &&
         a.sink.bytes() > 0;
}

double nm_reduction(const RunMetrics& service, const RunMetrics& legacy) {
  return service.nm_objective_evals > 0
             ? static_cast<double>(legacy.nm_objective_evals) /
                   static_cast<double>(service.nm_objective_evals)
             : 0.0;
}

double fit_share(const RunMetrics& m) {
  return m.run_wall_ms > 0.0 ? m.fit_wall_ms / m.run_wall_ms : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_file = "BENCH_largescale.json";
  unsigned threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_file = argv[++i];
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      threads = static_cast<unsigned>(std::stoul(argv[++i]));
  }

  // Full mode replays the trace's job count over its average arrival rate;
  // smoke keeps the same 550-server fleet (the gate is about scale, not a
  // toy topology) on a shorter stream so CI finishes in a few minutes.
  const std::size_t philly_jobs = smoke ? 3000 : 117000;
  const double philly_hours = smoke ? 4.0 : 280.0;
  const std::size_t matrix_servers = smoke ? 32 : 64;
  const std::size_t matrix_jobs = smoke ? 300 : 800;
  const double matrix_hours = smoke ? 4.0 : 6.0;
  // Mean wall-clock per scheduling round of the timing run. See CHANGES.md
  // for the readings behind it.
  const double ms_per_round_ceiling = 1.57;
  // Curve-fit work: the legacy path recomputes the whole warm-start chain
  // at every OptStop check (quadratic in chain length per job); the
  // service computes each link once. The aggregate quotient is dominated
  // by the long jobs, so >= 5x holds at both scales.
  const double nm_gate = 5.0;
  // Predictor wall-clock share of the default leg (was ~56% of the run
  // before the service; the incremental chains must keep it under 20%).
  const double fit_share_gate = 0.20;
  // Weak scaling: engine ms per tick at the largest point over the
  // smallest. Gated in full mode only — smoke's two short points are too
  // close together to say anything beyond the reported ratio.
  const std::vector<std::size_t> weak_jobs =
      smoke ? std::vector<std::size_t>{2500, 5000} : std::vector<std::size_t>{2500, 10000, 20000};
  const double weak_ratio_gate = 1.3;

  std::ofstream json(out_file);
  if (!json) {
    std::cerr << "cannot open " << out_file << "\n";
    return 1;
  }

  const std::vector<std::string> schedulers = exp::registered_scheduler_names();

  std::vector<exp::RunRequest> requests;
  std::vector<std::unique_ptr<HashedRun>> hashers;
  auto add = [&](exp::RunRequest request) {
    hashers.push_back(std::make_unique<HashedRun>());
    request.observer = hashers.back()->log.get();
    requests.push_back(std::move(request));
  };
  // Philly legs A / B (see file comment).
  add(philly_request(philly_jobs, philly_hours, /*service=*/true));
  add(philly_request(philly_jobs, philly_hours, /*service=*/false));
  // Matrix: per scheduler the same two legs at a mid-size point.
  for (const std::string& name : schedulers) {
    add(matrix_request(name, matrix_servers, matrix_jobs, matrix_hours, true));
    add(matrix_request(name, matrix_servers, matrix_jobs, matrix_hours, false));
  }

  exp::RunOptions options;
  options.threads = threads;
  std::cout << "bench_largescale: " << requests.size() << " runs ("
            << exp::resolve_threads(threads) << " threads), philly point = 550 servers / "
            << "2474 GPUs / " << philly_jobs << " jobs over " << philly_hours << "h\n";
  const auto t0 = std::chrono::steady_clock::now();
  // Timing run: leg A's request without its observer, alone, so neither
  // JSONL hashing nor co-running legs inflate the per-round wall clock.
  const RunMetrics timed = exp::execute_run(philly_request(philly_jobs, philly_hours, true));
  // Weak-scaling points, also alone: each is a per-tick wall-clock reading.
  const std::vector<WeakPoint> weak_points = weak_scaling_points(weak_jobs);
  std::vector<RunMetrics> weak;
  for (const WeakPoint& point : weak_points) weak.push_back(exp::execute_run(point.request));
  const double weak_ratio =
      engine_ms_per_tick(weak.front()) > 0.0
          ? engine_ms_per_tick(weak.back()) / engine_ms_per_tick(weak.front())
          : 0.0;
  const bool weak_pass = smoke || weak_ratio <= weak_ratio_gate;
  const std::vector<RunMetrics> results = exp::run_batch(requests, options);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const RunMetrics& leg_a = results[0];  // service (default)
  const RunMetrics& leg_b = results[1];  // legacy cold fits
  const bool philly_service_identical = identical(*hashers[0], *hashers[1]);
  const double ms_per_round = timed.sched_overhead_ms;
  const bool timed_identical = timed.event_stream_hash == leg_a.event_stream_hash;
  const double philly_nm_reduction = nm_reduction(leg_a, leg_b);
  const double philly_fit_share = fit_share(leg_a);

  std::cout << "=== philly point ===\n";
  std::cout << "  default    : " << leg_a.summary() << "\n";
  std::cout << "  legacy-fit : " << leg_b.summary() << "\n";
  std::cout << "  service_identical=" << (philly_service_identical ? "true" : "false")
            << "\n  sched round: " << ms_per_round << "ms (ceiling " << ms_per_round_ceiling
            << "ms), " << leg_a.candidates_scanned << " candidates scanned\n"
            << "  curve fits: " << leg_a.nm_objective_evals << " NM evals vs "
            << leg_b.nm_objective_evals << " legacy (" << philly_nm_reduction
            << "x reduction, gate " << nm_gate << "x), fit wall share "
            << philly_fit_share << " (gate " << fit_share_gate << ")\n";

  std::cout << "=== weak scaling (MLF-H, load " << kWeakLoad << ") ===\n";
  for (std::size_t i = 0; i < weak.size(); ++i) {
    std::cout << "  " << weak_jobs[i] << " jobs (offered load " << weak_points[i].offered_load
              << "): " << weak[i].sched_rounds << " ticks, engine "
              << engine_ms_per_tick(weak[i]) << " ms/tick\n";
  }
  std::cout << "  largest/smallest " << weak_ratio
            << (smoke ? " (reported only)" : " (gate " + std::to_string(weak_ratio_gate) + ")")
            << "\n";

  bool matrix_identical = true;
  json << "{\n  \"benchmark\": \"largescale\",\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"wall_seconds\": " << wall_seconds
       << ",\n  \"philly\": {\"servers\": 550, \"gpus\": 2474, \"jobs\": " << philly_jobs
       << ", \"arrival_hours\": " << philly_hours
       << ",\n    \"service_decisions_identical\": "
       << (philly_service_identical ? "true" : "false")
       << ", \"event_stream_bytes\": " << hashers[0]->sink.bytes()
       << ",\n    \"candidates_scanned\": " << leg_a.candidates_scanned
       << ", \"rounds\": " << leg_a.sched_rounds
       << ", \"ms_per_round\": " << ms_per_round
       << ", \"ms_per_round_ceiling\": " << ms_per_round_ceiling
       << ",\n    \"predictor\": {\"fits_cold\": " << leg_a.fits_cold
       << ", \"fits_warm\": " << leg_a.fits_warm
       << ", \"cache_hits\": " << leg_a.prediction_cache_hits
       << ",\n      \"nm_evals_service\": " << leg_a.nm_objective_evals
       << ", \"nm_evals_legacy\": " << leg_b.nm_objective_evals
       << ", \"nm_eval_reduction_x\": " << philly_nm_reduction
       << ", \"nm_eval_gate_x\": " << nm_gate
       << ",\n      \"fit_wall_ms\": " << leg_a.fit_wall_ms
       << ", \"fit_wall_ms_legacy\": " << leg_b.fit_wall_ms
       << ", \"run_wall_ms\": " << leg_a.run_wall_ms
       << ", \"fit_wall_share\": " << philly_fit_share
       << ", \"fit_share_gate\": " << fit_share_gate
       << "}},\n  \"weak_scaling\": {\"scheduler\": \"MLF-H\", \"offered_load\": " << kWeakLoad
       << ", \"points\": [";
  for (std::size_t i = 0; i < weak.size(); ++i) {
    json << (i > 0 ? ", " : "") << "\n    {\"jobs\": " << weak_jobs[i]
         << ", \"offered_load\": " << weak_points[i].offered_load
         << ", \"ticks\": " << weak[i].sched_rounds
         << ", \"run_wall_ms\": " << weak[i].run_wall_ms
         << ", \"engine_ms_per_tick\": " << engine_ms_per_tick(weak[i]) << "}";
  }
  json << "],\n    \"ratio_largest_over_smallest\": " << weak_ratio
       << ", \"ratio_gate\": " << (smoke ? std::string("null") : std::to_string(weak_ratio_gate))
       << "},\n  \"scheduler_matrix\": [\n";
  for (std::size_t i = 0; i < schedulers.size(); ++i) {
    const RunMetrics& on = results[2 + 2 * i];
    const RunMetrics& legacy = results[3 + 2 * i];
    const bool service_same = identical(*hashers[2 + 2 * i], *hashers[3 + 2 * i]);
    matrix_identical = matrix_identical && service_same;
    std::cout << "  " << schedulers[i]
              << ": service_identical=" << (service_same ? "true" : "false")
              << " nm_reduction=" << nm_reduction(on, legacy) << "x\n";
    json << "    {\"scheduler\": \"" << schedulers[i]
         << "\", \"service_decisions_identical\": " << (service_same ? "true" : "false")
         << ", \"nm_eval_reduction_x\": " << nm_reduction(on, legacy) << "}"
         << (i + 1 < schedulers.size() ? "," : "") << "\n";
  }
  const bool all_identical = philly_service_identical && timed_identical && matrix_identical;
  const bool pass = all_identical && ms_per_round <= ms_per_round_ceiling &&
                    philly_nm_reduction >= nm_gate && philly_fit_share < fit_share_gate &&
                    weak_pass;
  json << "  ],\n  \"all_decisions_identical\": " << (all_identical ? "true" : "false")
       << ",\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  std::cout << "wrote " << out_file << " (" << wall_seconds << "s)\n";

  if (!all_identical) {
    std::cerr << "FAIL: a leg's decisions diverged from its reference\n";
    return 1;
  }
  if (ms_per_round > ms_per_round_ceiling) {
    std::cerr << "FAIL: " << ms_per_round << "ms per scheduling round above the "
              << ms_per_round_ceiling << "ms ceiling\n";
    return 1;
  }
  if (philly_nm_reduction < nm_gate) {
    std::cerr << "FAIL: NM objective-eval reduction " << philly_nm_reduction
              << "x below the " << nm_gate << "x gate\n";
    return 1;
  }
  if (philly_fit_share >= fit_share_gate) {
    std::cerr << "FAIL: curve-fit wall share " << philly_fit_share << " at or above the "
              << fit_share_gate << " gate\n";
    return 1;
  }
  if (!weak_pass) {
    std::cerr << "FAIL: engine ms per tick grew " << weak_ratio << "x from "
              << weak_jobs.front() << " to " << weak_jobs.back() << " jobs (gate "
              << weak_ratio_gate << "x)\n";
    return 1;
  }
  return 0;
}
