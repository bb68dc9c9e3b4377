// Scheduler hot-path benchmark — the perf trajectory of MLF-H's host
// choice: the incremental load index, the epoch-keyed comm-volume memo and
// the fused linear candidate scan (DESIGN.md, "Scheduler hot path").
//
// For each cluster size it runs MLF-H once, strictly serially (so the
// wall-clock per-round numbers are never polluted by co-running
// simulations), and records the mean wall-clock per scheduling round and
// the hot-path counters. Every run must also reproduce the event-stream
// hash and event count pinned for that point: the pins were captured from
// runs whose JSONL event streams were byte-identical to the reference
// full-scan scheduler's, so a mismatch means a hot-path change moved a
// decision.
//
// Emits BENCH_sched_hotpath.json. CI runs `--smoke` and uploads the file.
//
// Usage: bench_sched_hotpath [--smoke] [--out FILE]
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace {

using namespace mlfs;

struct SizePoint {
  std::size_t servers;
  std::size_t jobs;
  std::uint64_t event_stream_hash;  ///< pinned decision fingerprint
  std::size_t events_processed;
};

/// The shared-runner request for one size point.
exp::RunRequest hotpath_request(const SizePoint& pt) {
  exp::RunRequest request;
  request.label = std::to_string(pt.servers) + " servers";
  request.cluster.server_count = pt.servers;
  request.cluster.gpus_per_server = 4;
  request.trace.num_jobs = pt.jobs;
  request.trace.duration_hours = 12.0;
  request.trace.seed = 42;
  request.trace.max_gpu_request =
      std::min<int>(32, static_cast<int>(pt.servers) * request.cluster.gpus_per_server / 2);
  request.engine.seed = 42 ^ 0xabc;
  request.scheduler = "MLF-H";
  request.mlfs_config.heuristic_only = true;
  return request;
}

void emit_counters(std::ostream& os, const RunMetrics& m) {
  os << "{\"ms_per_round\": " << m.sched_overhead_ms << ", \"rounds\": " << m.sched_rounds
     << ", \"candidates_scanned\": " << m.candidates_scanned
     << ", \"comm_cache_hits\": " << m.comm_cache_hits
     << ", \"comm_cache_misses\": " << m.comm_cache_misses
     << ", \"load_index_rebuilds\": " << m.load_index_rebuilds
     << ", \"load_index_refreshes\": " << m.load_index_refreshes
     << ", \"servers_reindexed\": " << m.servers_reindexed << "}";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_file = "BENCH_sched_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_file = argv[++i];
  }

  const std::vector<SizePoint> points =
      smoke ? std::vector<SizePoint>{{8, 60, 0x3f933203cc44cb37ull, 11710}}
            : std::vector<SizePoint>{{16, 150, 0x63bef77129ecddd7ull, 24272},
                                     {32, 300, 0x153dc488655f2690ull, 50240},
                                     {64, 600, 0x314c28f3a9e9a2aaull, 104902},
                                     {96, 900, 0xfb47796c50b04833ull, 150062}};

  std::ofstream json(out_file);
  if (!json) {
    std::cerr << "cannot open " << out_file << "\n";
    return 1;
  }
  json << "{\n  \"benchmark\": \"sched_hotpath\",\n  \"smoke\": "
       << (smoke ? "true" : "false") << ",\n  \"points\": [\n";

  bool all_pinned = true;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SizePoint& pt = points[i];
    std::cout << "=== " << pt.servers << " servers / " << pt.jobs << " jobs ===\n";
    const RunMetrics m = exp::execute_run(hotpath_request(pt));
    std::cout << "  " << m.summary() << "\n";
    const bool pinned = m.event_stream_hash == pt.event_stream_hash &&
                        m.events_processed == pt.events_processed;
    all_pinned = all_pinned && pinned;
    std::cout << "  decisions_pinned=" << (pinned ? "true" : "false") << " ("
              << m.sched_overhead_ms << "ms per round)\n";

    json << "    {\"servers\": " << pt.servers << ", \"jobs\": " << pt.jobs
         << ", \"decisions_pinned\": " << (pinned ? "true" : "false")
         << ", \"events_processed\": " << m.events_processed << ",\n     \"counters\": ";
    emit_counters(json, m);
    json << "}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"all_decisions_pinned\": " << (all_pinned ? "true" : "false") << "\n}\n";
  std::cout << "wrote " << out_file << "\n";

  if (!all_pinned) {
    std::cerr << "FAIL: an event stream diverged from its pinned hash\n";
    return 1;
  }
  return 0;
}
