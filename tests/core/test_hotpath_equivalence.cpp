// Decision pins for the scheduler hot path (DESIGN.md, "Scheduler hot
// path"). The single host-choice path — incremental load index, epoch-keyed
// comm-volume memo, fused linear candidate scan — must keep reproducing the
// event streams below. Each (event_stream_hash, events_processed) pair was
// captured from a run whose event stream was identical under three
// implementations: the bucketed placement index, the linear funnel, and
// the reference full-scan scheduler with recompute-per-candidate comm
// volumes and comparator sorts. Those implementations no longer exist; the
// pins carry their agreement forward. Do NOT update a pin to "fix" a
// failure — a mismatch means a hot-path change moved a decision.
//
// candidates_scanned is pinned as well: the fused scan examines exactly
// the underloaded partition (minus a migrating task's own server) on every
// host query, which is the count the linear funnel reported.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "exp/runner.hpp"

namespace mlfs::core {
namespace {

struct Variant {
  FaultConfig fault;
  int servers_per_rack = 0;
  bool use_topology = false;
  double usage_noise_sigma = EngineConfig{}.usage_noise_sigma;
};

struct Pin {
  std::uint64_t event_stream_hash;
  std::size_t events_processed;
  std::size_t candidates_scanned;
};

RunMetrics run(const std::string& scheduler, const Variant& v) {
  exp::RunRequest r;
  r.label = "hotpath-" + scheduler;
  r.cluster.server_count = 8;
  r.cluster.gpus_per_server = 4;
  r.cluster.servers_per_rack = v.servers_per_rack;
  r.engine.seed = 77;
  r.engine.fault = v.fault;
  r.engine.usage_noise_sigma = v.usage_noise_sigma;
  r.trace.num_jobs = 80;
  r.trace.duration_hours = 8.0;
  r.trace.seed = 21;
  r.trace.max_gpu_request = 12;
  r.scheduler = scheduler;
  // Low enough that MLFS hands over to its RL policy mid-run.
  r.mlfs_config.rl.warmup_samples = 100;
  r.mlfs_config.placement.use_topology = v.use_topology;
  return exp::execute_run(r);
}

/// Checks both schedulers against their pins; returns the MLF-H run.
RunMetrics expect_pinned(const Variant& v, const Pin& mlf_h, const Pin& mlfs) {
  const auto check = [&v](const char* scheduler, const Pin& pin) {
    const RunMetrics m = run(scheduler, v);
    EXPECT_EQ(m.event_stream_hash, pin.event_stream_hash) << scheduler;
    EXPECT_EQ(m.events_processed, pin.events_processed) << scheduler;
    EXPECT_EQ(m.candidates_scanned, pin.candidates_scanned) << scheduler;
    EXPECT_GT(m.comm_cache_misses, 0u) << scheduler;
    EXPECT_GT(m.servers_reindexed, 0u) << scheduler;
    return m;
  };
  check("MLFS", mlfs);
  return check("MLF-H", mlf_h);
}

TEST(HotPathEquivalence, FaultFreeFlatNetwork) {
  expect_pinned({}, {0x59a4ee41110abd6aull, 12948, 126937},
                {0x5478d9b9562cb590ull, 9866, 26022});
}

TEST(HotPathEquivalence, UnderServerChurnAndTaskKills) {
  Variant v;
  v.fault.server_mtbf_hours = 6.0;
  v.fault.server_mttr_hours = 0.5;
  v.fault.task_kill_probability = 0.002;
  expect_pinned(v, {0xd3b21f73d9d92b5dull, 13159, 151774},
                {0xd0a10c9bf26733f4ull, 10184, 51491});
}

TEST(HotPathEquivalence, RackTopologyWithAffinityPlacement) {
  Variant v;
  v.servers_per_rack = 4;
  v.use_topology = true;
  expect_pinned(v, {0x71c70bb3b23592c7ull, 12975, 150238},
                {0x87094b3d308c4daeull, 9937, 43177});
}

TEST(HotPathEquivalence, MigrationUnderUsageFluctuation) {
  // Heavy usage noise keeps pushing servers over hr, so overload relief
  // drives hundreds of migrating host queries (and preemptions).
  Variant v;
  v.usage_noise_sigma = 0.3;
  const RunMetrics m = expect_pinned(v, {0xa47af541fc6652e7ull, 13325, 197788},
                                     {0x2aef2e7d2ab1dcffull, 10128, 59692});
  EXPECT_GT(m.migrations, 500u);
}

}  // namespace
}  // namespace mlfs::core
