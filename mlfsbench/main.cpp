// MLFS benchmark driver. Runs one workload (see workloads.hpp) and prints
// its end-to-end metrics (timed run, --trace 0) or its per-layer table
// (traced run, --trace 1), then one JSON result line:
//
//   mlfsbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--tmp DIR]
//
// Every probed simulation is checked against a reference run of the same
// inputs (event-stream hash and deterministic_equal metrics); the first
// instance's reference is an uninstrumented run. Any mismatch, including a
// crashed-and-recovered durable session that diverges from the uncrashed
// streaming reference, counts as a failed operation, and the run then
// prints no numbers and exits 1.
//
// Host times are CPU times of this thread scaled to reference host speed,
// as measured by the meter in hostspeed.hpp while the run goes on.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "exp/durable.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "probes.hpp"
#include "sim/journal.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using mlfs::RunMetrics;
using mlfsbench::Clock;
using mlfsbench::HostSpeed;
using mlfsbench::SpeedReading;
using mlfsbench::WallClock;
using mlfsbench::Inputs;
using mlfsbench::seconds_since;

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 5;
/// Audited pass: invariant sweep every kAuditStride events.
constexpr int kAuditStride = 2048;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string tmp = ".bench_build/tmp";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--tmp") {
      o.tmp = value;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

/// Operation accounting: every checked simulation or session is one
/// attempt; a check that fails makes it a failure.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void expect_same(const RunMetrics& got, const RunMetrics& reference, const std::string& what) {
    ++attempted;
    if (got.event_stream_hash == reference.event_stream_hash &&
        mlfs::deterministic_equal(got, reference)) {
      return;
    }
    ++failed;
    std::cerr << "FAIL: " << what << " diverged from the reference run: hash " << std::hex
              << got.event_stream_hash << " vs " << reference.event_stream_hash << std::dec
              << ", events " << got.events_processed << " vs " << reference.events_processed
              << "\n";
  }
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::cerr << "FAIL: " << what << "\n";
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Resets the process's peak resident set to its current size, so the
/// next peak_rss_mb() covers only what ran in between (Linux clear_refs;
/// where that is refused, the peak stays the whole process's).
void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// One probed simulation of a workload instance.
struct Sim {
  RunMetrics metrics;
  double cpu_s = 0.0;   ///< step loop + finalize, CPU time
  double speed = 1.0;   ///< host speed over the simulation (see hostspeed.hpp)
  double step_s = 0.0;  ///< sum of step() times (traced only)
  std::size_t rounds = 0;
  double sched_s = 0.0;
  std::vector<double> round_s;  ///< rounds entered with tasks waiting
  double hook_s = 0.0;
  double controller_s = 0.0;
  std::size_t completed = 0;  ///< jobs completed (not failed, not censored)
  mlfsbench::CountingObserver counts;
  std::vector<std::uint64_t> inject_events;  ///< event index of each streamed arrival
  std::vector<double> save_ms;
  std::vector<double> restore_ms;
  std::size_t snapshot_bytes = 0;
};

struct SimMode {
  bool trace = false;  ///< per-step clock, hook/controller clocks, observer
  bool audit = false;
  /// Traced durable workload: save and restore a snapshot every this many
  /// events (the durable session's checkpoint events); 0 = never.
  std::uint64_t checkpoint_stride = 0;
};

/// One pass of the shared streaming drive loop (the same termination rule
/// exp::run_streaming uses): a drained engine with arrivals pending keeps
/// going while events or injections still happen.
bool drive_step(mlfs::SimEngine& engine, const mlfs::exp::ScriptedArrivalSource* source) {
  const std::uint64_t events = engine.events_processed();
  const std::size_t injected = engine.injected_specs().size();
  if (engine.step()) return true;
  if (source == nullptr || !source->pending()) return false;
  return engine.events_processed() != events || engine.injected_specs().size() != injected;
}

Sim simulate(const Inputs& in, const SimMode& mode) {
  mlfs::exp::RunRequest request = in.request;
  if (mode.audit) {
    request.engine.audit.enabled = true;
    request.engine.audit.stride = kAuditStride;
  }
  mlfs::exp::SchedulerInstance instance =
      mlfs::exp::make_scheduler(request.scheduler, request.mlfs_config);
  mlfsbench::TimedScheduler scheduler(*instance.scheduler, mode.trace);
  std::optional<mlfsbench::TimedController> controller;
  mlfs::LoadController* load_controller = instance.controller.get();
  if (mode.trace && load_controller != nullptr) {
    controller.emplace(*load_controller);
    load_controller = &*controller;
  }
  mlfs::SimEngine engine(request.cluster, request.engine, *request.workload, scheduler,
                         load_controller);

  Sim sim;
  if (mode.trace) engine.set_observer(&sim.counts);
  mlfs::exp::ScriptedArrivalSource source(
      in.script, [&sim](const mlfs::JobSpec&, std::uint64_t, std::uint64_t event_index) {
        sim.inject_events.push_back(event_index);
      });
  const mlfs::exp::ScriptedArrivalSource* streamed = nullptr;
  if (!in.script.empty()) {
    engine.set_arrival_source(&source);
    streamed = &source;
  }

  double snapshot_s = 0.0;
  std::uint64_t last_checkpoint = 0;
  const SpeedReading speed_start = HostSpeed::read();
  const Clock::time_point start = Clock::now();
  for (;;) {
    const std::uint64_t events = engine.events_processed();
    if (mode.checkpoint_stride > 0 && events >= last_checkpoint + mode.checkpoint_stride) {
      last_checkpoint = events;
      const Clock::time_point snap_start = Clock::now();
      std::ostringstream os;
      Clock::time_point t = Clock::now();
      engine.save_snapshot(os);
      sim.save_ms.push_back(1e3 * seconds_since(t));
      const std::string bytes = os.str();
      sim.snapshot_bytes = std::max(sim.snapshot_bytes, bytes.size());
      mlfs::exp::EngineBundle spare = mlfs::exp::build_engine(request);
      std::istringstream is(bytes);
      t = Clock::now();
      spare.engine->restore_snapshot(is);
      sim.restore_ms.push_back(1e3 * seconds_since(t));
      snapshot_s += seconds_since(snap_start);
    }
    bool more = false;
    if (mode.trace) {
      const Clock::time_point t = Clock::now();
      more = drive_step(engine, streamed);
      sim.step_s += seconds_since(t);
    } else {
      more = drive_step(engine, streamed);
    }
    if (!more) break;
  }
  sim.metrics = engine.finalize();
  // Snapshot calls are the traced run's own work, not the simulation's.
  sim.cpu_s = seconds_since(start) - snapshot_s;
  sim.speed = HostSpeed::speed(speed_start, HostSpeed::read(), 1.0);

  sim.rounds = scheduler.rounds();
  sim.sched_s = scheduler.busy_seconds();
  sim.round_s = scheduler.round_seconds();
  sim.hook_s = scheduler.hook_seconds();
  sim.completed = scheduler.completions() - sim.metrics.jobs_failed_permanent;
  if (controller) sim.controller_s = controller->busy_seconds();
  return sim;
}

/// A durable session crashed once mid-stream and recovered. Times are CPU
/// times except `wall_s`.
struct DurableCycle {
  double crash_s = 0.0;    ///< session 1: start to the simulated crash
  double recover_s = 0.0;  ///< session 2: resume and reach the crash event again
  double resume_s = 0.0;   ///< session 3: resume and run to completion
  double wall_s = 0.0;     ///< elapsed time of the three sessions
  double speed = 1.0;      ///< host speed over the three sessions
  mlfs::exp::DurableResult resumed;
  std::size_t snapshots = 0;
  std::size_t journal_records = 0;
  std::uintmax_t journal_bytes = 0;
};

/// Runs the three sessions in a fresh `dir`; each is one checked operation,
/// and the last must reproduce the uncrashed `reference`.
DurableCycle durable_cycle(const Inputs& in, const RunMetrics& reference,
                           std::uint64_t crash_event, std::uint64_t stride,
                           const std::string& dir, Checks& checks) {
  fs::remove_all(dir);
  mlfs::exp::DurableConfig config;
  config.dir = dir;
  config.snapshot_stride = stride;
  config.halt_at_event = crash_event;

  DurableCycle cycle;
  const WallClock::time_point wall_start = WallClock::now();
  const SpeedReading speed_start = HostSpeed::read();
  Clock::time_point t = Clock::now();
  const mlfs::exp::DurableResult crashed = mlfs::exp::run_durable(in.request, in.script, config);
  cycle.crash_s = seconds_since(t);
  checks.expect(crashed.halted && !crashed.recovered, "durable session did not halt at the crash");

  t = Clock::now();
  const mlfs::exp::DurableResult recovered =
      mlfs::exp::run_durable(in.request, in.script, config);
  cycle.recover_s = seconds_since(t);
  checks.expect(recovered.halted && recovered.recovered,
                "recovery session did not resume and reach the crash event");

  config.halt_at_event.reset();
  t = Clock::now();
  cycle.resumed = mlfs::exp::run_durable(in.request, in.script, config);
  cycle.resume_s = seconds_since(t);
  cycle.wall_s = seconds_since(wall_start);
  cycle.speed = HostSpeed::speed(speed_start, HostSpeed::read(), 1.0);
  if (cycle.resumed.recovered && !cycle.resumed.halted) {
    checks.expect_same(cycle.resumed.metrics, reference, "crashed-and-recovered session");
  } else {
    checks.expect(false, "final session did not resume and complete");
  }
  cycle.snapshots = crashed.snapshots_written + cycle.resumed.snapshots_written;

  const std::uint64_t fingerprint =
      mlfs::exp::build_engine(in.request).engine->config_fingerprint();
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("journal-", 0) != 0) continue;
    cycle.journal_bytes += entry.file_size();
    cycle.journal_records +=
        mlfs::read_journal_file(entry.path().string(), fingerprint).records.size();
  }
  fs::remove_all(dir);
  return cycle;
}

/// Unique per-process directory for journals; removed on exit.
class TempDir {
 public:
  explicit TempDir(const std::string& root)
      : path_(root + "/mlfsbench-" + std::to_string(::getpid())) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

std::string number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << (std::isfinite(v) ? v : 0.0);
  return os.str();
}

void print_table(const std::string& title, const std::vector<Metric>& metrics) {
  std::cout << title << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(30) << m.name << std::right << std::setw(18)
              << std::setprecision(6) << m.value << " " << std::left << std::setw(6) << m.unit
              << std::right << (m.note.empty() ? "" : "  " + m.note) << "\n";
  }
}

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  const bool ok = checks.failed == 0;
  std::cout << "{\"correct\": " << (ok ? "true" : "false")
            << ", \"attempted\": " << checks.attempted << ", \"failed\": " << checks.failed
            << ", \"metrics\": {";
  if (ok) {
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::cout << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
                << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
  }
  std::cout << "}}" << std::endl;
}

/// One workload instance: its inputs and the reference run every other run
/// of it must reproduce.
struct Instance {
  Inputs in;
  /// The uninstrumented run (run_reference), or else the instance's first
  /// probed run.
  RunMetrics reference;
  bool has_reference = false;
  double reference_cpu_s = 0.0;
  double reference_wall_s = 0.0;
  double reference_speed = 1.0;
  std::size_t completed = 0;
  /// Durable session geometry (streamed workloads): checkpoint stride and
  /// crash event, fixed by the first probed run.
  std::uint64_t checkpoint_stride = 0;
  std::uint64_t crash_event = 0;
};

/// About a dozen durable checkpoints over a run of `reference`'s length.
std::uint64_t checkpoint_stride(const RunMetrics& reference) {
  return std::max<std::uint64_t>(1, reference.events_processed / 12);
}

/// The reference run, through the public APIs: the engine's own run(), or
/// exp::run_streaming for a streamed workload.
void run_reference(Instance& instance) {
  mlfs::exp::EngineBundle bundle;
  if (instance.in.script.empty()) bundle = mlfs::exp::build_engine(instance.in.request);
  const WallClock::time_point wall_start = WallClock::now();
  const SpeedReading speed_start = HostSpeed::read();
  const Clock::time_point start = Clock::now();
  instance.reference = instance.in.script.empty()
                           ? bundle.engine->run()
                           : mlfs::exp::run_streaming(instance.in.request, instance.in.script);
  instance.reference_cpu_s = seconds_since(start);
  instance.reference_wall_s = seconds_since(wall_start);
  instance.reference_speed = HostSpeed::speed(speed_start, HostSpeed::read(), 1.0);
  instance.has_reference = true;
  instance.checkpoint_stride = checkpoint_stride(instance.reference);
}

/// Crash point of the durable session, from one probed streaming run: half
/// a stride past the checkpoint preceding the middle streamed arrival, so
/// recovery always replays half a stride of events.
void place_crash(Instance& instance, const Sim& sim) {
  const std::uint64_t stride = instance.checkpoint_stride;
  const std::uint64_t mid = sim.inject_events.at(sim.inject_events.size() / 2);
  instance.crash_event = mid / stride * stride + stride / 2;
}

/// Checks a probed run of an instance against its reference; an instance
/// without one adopts the run as its reference.
void check_run(Instance& instance, const Sim& sim, const std::string& what, Checks& checks) {
  instance.completed = sim.completed;
  if (instance.has_reference) {
    checks.expect_same(sim.metrics, instance.reference, what);
    return;
  }
  ++checks.attempted;
  instance.reference = sim.metrics;
  instance.has_reference = true;
  instance.checkpoint_stride = checkpoint_stride(instance.reference);
}

std::vector<Metric> outcome_metrics(const std::vector<Instance>& instances) {
  double jct = 0.0;
  double deadline = 0.0;
  double accuracy = 0.0;
  double bandwidth = 0.0;
  std::size_t completed = 0;
  std::size_t jobs = 0;
  for (const Instance& instance : instances) {
    const RunMetrics& m = instance.reference;
    jct += m.average_jct_minutes();
    deadline += m.deadline_ratio;
    accuracy += m.accuracy_ratio;
    bandwidth += m.bandwidth_tb;
    completed += instance.completed;
    jobs += m.job_count;
  }
  const double n = static_cast<double>(instances.size());
  return {
      {"sim_avg_jct_min", jct / n, "min", "simulated"},
      {"sim_deadline_ratio", deadline / n, "ratio", "simulated"},
      {"sim_accuracy_ratio", accuracy / n, "ratio", "simulated"},
      {"sim_bandwidth_tb", bandwidth / n, "TB", "simulated"},
      {"jobs_completed_ratio", ratio(static_cast<double>(completed), static_cast<double>(jobs)),
       "ratio", std::to_string(completed) + "/" + std::to_string(jobs)},
  };
}

/// Runs `pass(i)` over the instances round-robin until `seconds` have
/// passed since `start` and every instance had at least `min_passes`.
template <typename Pass>
void round_robin(std::size_t count, double seconds, WallClock::time_point start,
                 std::size_t min_passes, Pass pass) {
  for (std::size_t done = 0; done < min_passes * count || seconds_since(start) < seconds;
       ++done) {
    pass(done % count);
  }
}

/// Timed run: end-to-end metrics. Host times are CPU times at reference
/// host speed, per instance: the median of an instance's samples, averaged
/// over the instances.
std::vector<Metric> timed_run(std::vector<Instance>& instances, const Options& o,
                              WallClock::time_point start, double setup_s, const TempDir& tmp,
                              Checks& checks) {
  const std::size_t count = instances.size();
  const bool streamed = !instances.front().in.script.empty();
  std::vector<std::vector<double>> cpu(count);
  std::vector<double> raw_cpu;
  std::vector<double> speeds;
  mlfs::SampleSet rounds_ms;
  std::size_t rounds = 0;
  auto sample = [&](std::size_t i, double seconds, double speed) {
    cpu[i].push_back(seconds * speed);
    raw_cpu.push_back(seconds);
    speeds.push_back(speed);
  };

  // Peak RSS is taken per instance over its first probed simulation and
  // averaged: the largest of many traces would make it an extreme value
  // that swings between seeds.
  std::vector<double> rss_mb(count, 0.0);
  auto probed = [&](std::size_t i) {
    const bool first = rss_mb[i] == 0.0;
    if (first) reset_peak_rss();
    const Sim sim = simulate(instances[i].in, SimMode{});
    if (first) rss_mb[i] = peak_rss_mb();
    check_run(instances[i], sim, "timed run", checks);
    for (const double r : sim.round_s) rounds_ms.add(1e3 * r * sim.speed);
    rounds += sim.rounds;
    return sim;
  };
  // Host time depends on the trace, so every instance is timed: instance 0
  // is also run uninstrumented (the pure-observer check); the others adopt
  // their first probed run as their reference.
  run_reference(instances.front());
  if (!streamed) {
    sample(0, instances.front().reference_cpu_s, instances.front().reference_speed);
    round_robin(count, o.seconds, start, 1, [&](std::size_t i) {
      const Sim sim = probed(i);
      sample(i, sim.cpu_s, sim.speed);
    });
  } else {
    // Rounds and outcomes come from one probed streaming run per instance,
    // which also places the crash. Host time comes from durable sessions,
    // each crashed once mid-stream and recovered.
    for (std::size_t i = 0; i < count; ++i) place_crash(instances[i], probed(i));
    round_robin(count, o.seconds, start, 1, [&](std::size_t i) {
      Instance& instance = instances[i];
      const DurableCycle cycle =
          durable_cycle(instance.in, instance.reference, instance.crash_event,
                        instance.checkpoint_stride, tmp.path() + "/journal", checks);
      sample(i, cycle.crash_s + cycle.resume_s, cycle.speed);
    });
  }

  double cpu_s = 0.0;
  double events = 0.0;
  std::cout << "ref_cpu_s per instance (median):";
  for (std::size_t i = 0; i < count; ++i) {
    const double m = median(cpu[i]);
    std::cout << " " << std::setprecision(4) << m;
    cpu_s += m;
    events += static_cast<double>(instances[i].reference.events_processed);
  }
  std::cout << "\nraw CPU s per sample:";
  for (const double r : raw_cpu) std::cout << " " << r;
  std::cout << "\nhost speed per sample:";
  for (const double r : speeds) std::cout << " " << r;
  std::cout << "\n";
  cpu_s /= static_cast<double>(count);
  events /= static_cast<double>(count);
  const std::size_t n = rounds_ms.count();
  const std::string round_note =
      "n=" + std::to_string(n) + " of " + std::to_string(rounds) + " rounds had tasks waiting";
  std::vector<Metric> metrics = {
      {"ref_cpu_s", cpu_s, "s",
       std::to_string(raw_cpu.size()) + " samples over " + std::to_string(count) +
           " instance(s)"},
      {"setup_s", setup_s, "s", "ref CPU, median of " + std::to_string(kSetupReps)},
      {"events_per_ref_cpu_s", ratio(events, cpu_s), "1/s",
       number(events) + " events per instance"},
      {"round_ref_cpu_ms_p50", rounds_ms.percentile(50.0), "ms", round_note},
      {"peak_rss_mb", mean(rss_mb), "MB", "one simulation on top of the set-up, per instance"},
  };
  for (Metric& m : outcome_metrics(instances)) metrics.push_back(std::move(m));
  return metrics;
}

/// Traced run: per-layer metrics, per instance (median over an instance's
/// traced passes, averaged over the instances).
std::vector<Metric> traced_run(std::vector<Instance>& instances, const Options& o,
                               WallClock::time_point start, double gen_s, double build_s,
                               const TempDir& tmp, Checks& checks) {
  const std::size_t count = instances.size();
  const bool streamed = !instances.front().in.script.empty();
  // As in the timed run, only instance 0 gets an uninstrumented run.
  run_reference(instances.front());
  SimMode mode;
  mode.trace = true;
  std::vector<std::vector<Sim>> passes(count);
  round_robin(count, o.seconds, start, 1, [&](std::size_t i) {
    SimMode pass_mode = mode;
    // A streamed workload's passes also save and restore a snapshot at each
    // of the durable session's checkpoint events, once the stride is known
    // (from instance 0's reference, or an instance's first pass).
    if (streamed) pass_mode.checkpoint_stride = instances[i].checkpoint_stride;
    passes[i].push_back(simulate(instances[i].in, pass_mode));
    check_run(instances[i], passes[i].back(), "traced run", checks);
  });

  // Mean over instances of the median over passes. Times are scaled to
  // reference host speed.
  auto per_instance = [&](auto field) {
    double sum = 0.0;
    for (const std::vector<Sim>& p : passes) {
      std::vector<double> v;
      for (const Sim& s : p) v.push_back(static_cast<double>(field(s)));
      sum += median(v);
    }
    return sum / static_cast<double>(count);
  };
  const double sched_s = per_instance([](const Sim& s) { return s.sched_s * s.speed; });
  const double hook_s = per_instance([](const Sim& s) { return s.hook_s * s.speed; });
  const double mlfc_s = per_instance([](const Sim& s) { return s.controller_s * s.speed; });
  const double fit_s =
      per_instance([](const Sim& s) { return s.metrics.fit_wall_ms / 1e3 * s.speed; });
  const double step_s = per_instance([](const Sim& s) { return s.step_s * s.speed; });
  const double speed = per_instance([](const Sim& s) { return s.speed; });
  const double self_s = step_s - sched_s - hook_s - mlfc_s - fit_s;
  const double ticks = per_instance([](const Sim& s) { return s.rounds; });
  const double events = per_instance([](const Sim& s) { return s.metrics.events_processed; });
  const double placements = per_instance([](const Sim& s) { return s.counts.placements; });
  const double releases = per_instance([](const Sim& s) { return s.counts.releases; });
  const double scanned =
      per_instance([](const Sim& s) { return s.metrics.candidates_scanned; });
  const double comm_hits = per_instance([](const Sim& s) { return s.metrics.comm_cache_hits; });
  const double comm_misses =
      per_instance([](const Sim& s) { return s.metrics.comm_cache_misses; });
  const double fits_cold = per_instance([](const Sim& s) { return s.metrics.fits_cold; });
  const double fits_warm = per_instance([](const Sim& s) { return s.metrics.fits_warm; });
  const double nm_evals =
      per_instance([](const Sim& s) { return s.metrics.nm_objective_evals; });
  mlfs::SampleSet rounds_ms;
  for (const std::vector<Sim>& p : passes) {
    for (const double r : p.front().round_s) rounds_ms.add(1e3 * r * p.front().speed);
  }
  // Tracing and audit overheads, from instance 0: its traced passes against
  // its uninstrumented run, and the same traced pass with auditing on.
  std::vector<double> traced0;
  for (const Sim& s : passes.front()) traced0.push_back(s.cpu_s * s.speed);
  SimMode audit_mode = mode;
  audit_mode.audit = true;
  const Sim audited = simulate(instances.front().in, audit_mode);
  checks.expect_same(audited.metrics, instances.front().reference, "audited run");
  const double audit_us =
      ratio(1e6 * (audited.cpu_s * audited.speed - median(traced0)),
            static_cast<double>(audited.metrics.events_processed));

  DurableCycle cycle;
  std::vector<double> save_ms;
  std::vector<double> restore_ms;
  std::size_t snapshot_bytes = 0;
  if (streamed) {
    Instance& first = instances.front();
    place_crash(first, passes.front().front());
    cycle = durable_cycle(first.in, first.reference, first.crash_event, first.checkpoint_stride,
                          tmp.path() + "/journal", checks);
    for (const std::vector<Sim>& p : passes) {
      for (const Sim& s : p) {
        for (const double ms : s.save_ms) save_ms.push_back(ms * s.speed);
        for (const double ms : s.restore_ms) restore_ms.push_back(ms * s.speed);
        snapshot_bytes = std::max(snapshot_bytes, s.snapshot_bytes);
      }
    }
  }

  std::vector<Metric> metrics = {
      {"engine.events", events, "count", "per instance"},
      {"engine.ticks", ticks, "count", ""},
      {"engine.self_s", self_s, "s", "step time - sched - hooks - mlfc - fit"},
      {"engine.self_ms_per_tick", ratio(1e3 * self_s, ticks), "ms", ""},
      {"engine.self_ns_per_event", ratio(1e9 * self_s, events), "ns", ""},
      {"sched.busy_s", sched_s, "s", "schedule() calls"},
      {"sched.rounds", ticks, "count", ""},
      {"sched.round_ms_mean", rounds_ms.mean(), "ms",
       "n=" + std::to_string(rounds_ms.count()) + " rounds with tasks waiting"},
      {"sched.round_ms_p90", rounds_ms.percentile(90.0), "ms",
       std::to_string(rounds_ms.count() / 10) + " beyond"},
      {"sched.round_ms_p99", rounds_ms.percentile(99.0), "ms",
       std::to_string(rounds_ms.count() / 100) + " beyond"},
      {"sched.hook_s", hook_s, "s", "on_job_arrival + on_job_complete"},
      {"sched.candidates_scanned", scanned, "count", ""},
      {"sched.scans_per_round", ratio(scanned, ticks), "count", ""},
      {"sched.comm_cache_hit_ratio", ratio(comm_hits, comm_hits + comm_misses), "ratio", ""},
      {"sched.placements", placements, "count", ""},
      {"sched.releases", releases, "count", ""},
      {"sched.placement_kept_ratio", ratio(placements - releases, placements), "ratio", ""},
      {"sched.preemptions", per_instance([](const Sim& s) { return s.counts.preemptions; }),
       "count", ""},
      {"sched.migrations", per_instance([](const Sim& s) { return s.counts.migrations; }),
       "count", ""},
      {"mlfc.busy_s", mlfc_s, "s", "before_schedule() calls"},
      {"predict.fit_s", fit_s, "s", "RunMetrics::fit_wall_ms"},
      {"predict.fits_cold", fits_cold, "count", ""},
      {"predict.fits_warm", fits_warm, "count", ""},
      {"predict.nm_evals", nm_evals, "count", ""},
      {"predict.evals_per_fit", ratio(nm_evals, fits_cold + fits_warm), "count", ""},
      {"predict.cache_hits",
       per_instance([](const Sim& s) { return s.metrics.prediction_cache_hits; }), "count",
       ""},
      {"link.busy_sim_s",
       per_instance([](const Sim& s) { return s.metrics.link_busy_seconds; }), "s", "simulated"},
      {"link.contention_sim_s",
       per_instance([](const Sim& s) { return s.metrics.contention_slowdown_seconds; }), "s",
       "simulated"},
      {"link.rephased",
       per_instance([](const Sim& s) { return s.metrics.phase_offset_hits; }), "count", ""},
      {"snapshot.save_ms", median(save_ms), "ms", "median of " + std::to_string(save_ms.size())},
      {"snapshot.restore_ms", median(restore_ms), "ms",
       "median of " + std::to_string(restore_ms.size())},
      {"snapshot.mb", static_cast<double>(snapshot_bytes) / (1024.0 * 1024.0), "MB", "largest"},
      {"snapshot.count", static_cast<double>(cycle.snapshots), "count", "instance 0's session"},
      {"journal.records", static_cast<double>(cycle.journal_records), "count", ""},
      {"journal.bytes", static_cast<double>(cycle.journal_bytes), "bytes", ""},
      {"durable.records_replayed", static_cast<double>(cycle.resumed.records_replayed), "count",
       ""},
      {"durable.recover_s", cycle.recover_s * cycle.speed, "s",
       "resume and reach the crash event again"},
      {"durable.off_cpu_s",
       streamed ? cycle.wall_s - cycle.crash_s - cycle.recover_s - cycle.resume_s : 0.0, "s",
       "elapsed - CPU of the three sessions (fsync waits, CPU taken away)"},
      {"workload.gen_s", gen_s, "s", "median of " + std::to_string(kSetupReps)},
      {"engine.build_s", build_s, "s", "median of " + std::to_string(kSetupReps)},
      {"audit.us_per_event", audit_us, "us",
       "stride " + std::to_string(kAuditStride) + ", instance 0"},
      {"trace_overhead",
       ratio(median(traced0),
             instances.front().reference_cpu_s * instances.front().reference_speed),
       "ratio", "traced / untraced, instance 0"},
      {"host.speed", speed, "ratio", "kernel time on the reference host / here"},
      {"host.cpu_over_wall",
       ratio(instances.front().reference_cpu_s, instances.front().reference_wall_s), "ratio",
       "untraced run of instance 0; below 1 = CPU taken away"},
  };

  std::cout << "layer shares of step time (" << step_s << " s per instance):"
            << " engine.self " << ratio(self_s, step_s) << ", sched " << ratio(sched_s, step_s)
            << ", hooks " << ratio(hook_s, step_s) << ", mlfc " << ratio(mlfc_s, step_s)
            << ", predict.fit " << ratio(fit_s, step_s) << "\n";
  return metrics;
}

/// FNV-1a fold of the instances' event-stream hashes: the workload's hash.
std::uint64_t combined_hash(const std::vector<Instance>& instances) {
  std::uint64_t h = 1469598103934665603ull;
  for (const Instance& instance : instances) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((instance.reference.event_stream_hash >> (8 * byte)) & 0xffu)) *
          1099511628211ull;
    }
  }
  return h;
}

/// Runs the host-speed meter for its lifetime.
struct SpeedMeter {
  SpeedMeter() { HostSpeed::start(); }
  ~SpeedMeter() { HostSpeed::stop(); }
  SpeedMeter(const SpeedMeter&) = delete;
  SpeedMeter& operator=(const SpeedMeter&) = delete;
};

int run(const Options& o) {
  const mlfsbench::Workload workload = mlfsbench::make_workload(o.workload, o.seed);
  const TempDir tmp(o.tmp);
  const SpeedMeter meter;
  Checks checks;
  const auto count = static_cast<std::size_t>(workload.instances);

  // Set-up: trace generation + engine construction of every instance,
  // repeated; the metrics are per instance, at reference host speed.
  std::vector<double> gen;
  std::vector<double> build;
  std::vector<double> setup;
  std::vector<Instance> instances(count);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    double gen_s = 0.0;
    double build_s = 0.0;
    const SpeedReading speed_start = HostSpeed::read();
    for (std::size_t i = 0; i < count; ++i) {
      Clock::time_point t = Clock::now();
      instances[i].in = mlfsbench::generate_inputs(workload, static_cast<int>(i));
      gen_s += seconds_since(t);
      t = Clock::now();
      const mlfs::exp::EngineBundle bundle = mlfs::exp::build_engine(instances[i].in.request);
      build_s += seconds_since(t);
    }
    const double speed = HostSpeed::speed(speed_start, HostSpeed::read(), 1.0);
    gen.push_back(gen_s * speed / static_cast<double>(count));
    build.push_back(build_s * speed / static_cast<double>(count));
    setup.push_back(gen.back() + build.back());
  }

  const WallClock::time_point start = WallClock::now();
  const Clock::time_point cpu_start = Clock::now();
  const std::vector<Metric> metrics =
      o.trace ? traced_run(instances, o, start, median(gen), median(build), tmp, checks)
              : timed_run(instances, o, start, median(setup), tmp, checks);
  std::cout << "measured for " << seconds_since(start) << " s elapsed, "
            << seconds_since(cpu_start) << " s CPU\n";
  std::cout << "workload " << workload.name << " seed=" << o.seed << " scheduler="
            << workload.request.scheduler << " instances=" << count
            << " jobs/instance=" << instances.front().reference.job_count << " (streamed "
            << instances.front().reference.jobs_injected << ")\n";
  std::cout << "event_stream_hash " << workload.name << " seed=" << o.seed << " 0x" << std::hex
            << combined_hash(instances) << std::dec << "\n";
  if (checks.failed == 0) {
    print_table(o.trace ? "per-layer metrics (traced run)" : "end-to-end metrics (timed run)",
                metrics);
  } else {
    std::cout << checks.failed << " of " << checks.attempted
              << " checked operations failed; no metrics reported\n";
  }
  print_result(checks, metrics);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "mlfsbench: " << e.what() << "\n";
    return 2;
  }
}
