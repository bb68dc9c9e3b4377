// Regression tests for the communication-volume memo (core/placement.cpp).
//
// The memo was originally keyed on the cluster-wide placement epoch, so ANY
// placement anywhere invalidated EVERY cached vector: the hit rate collapsed
// from ~49% on a 16-server fleet to ~0.45% at 96 servers, precisely where
// memoization matters. Keying on the per-job placement epoch (only same-job
// placements can change a task's comm vector) restores fleet-scale hit
// rates; the first test pins that with a floor at the 96-server point. The
// second pins the bounded-arena eviction path: a memo capacity far below the
// working set must change performance counters only, never decisions. The
// PlacementRestore tests feed MlfPlacement::restore_state crafted memo
// payloads: malformed slot tables are rejected before anything is sized.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "core/mlf_h.hpp"
#include "sim/engine.hpp"
#include "workload/model_zoo.hpp"
#include "sim/event_log.hpp"
#include "workload/trace.hpp"

namespace mlfs::core {
namespace {

struct RunResult {
  std::string events;
  RunMetrics metrics;
};

RunResult run_fleet(int servers, std::size_t memo_slots) {
  ClusterConfig cluster;
  cluster.server_count = servers;
  cluster.gpus_per_server = 4;

  MlfsConfig config;
  config.heuristic_only = true;
  config.placement.comm_memo_slots = memo_slots;

  TraceConfig trace;
  trace.num_jobs = 4 * servers;  // scale offered load with the fleet
  trace.duration_hours = 4.0;
  trace.seed = 21;
  trace.max_gpu_request = 12;

  EngineConfig engine_config;
  engine_config.seed = 77;

  MlfH scheduler{config};
  SimEngine engine(cluster, engine_config, PhillyTraceGenerator(trace).generate(), scheduler);
  std::ostringstream os;
  JsonlEventLog log(os);
  engine.set_observer(&log);
  RunResult r;
  r.metrics = engine.run();
  r.events = os.str();
  return r;
}

double hit_ratio(const RunMetrics& m) {
  const double total = static_cast<double>(m.comm_cache_hits + m.comm_cache_misses);
  return total == 0.0 ? 0.0 : static_cast<double>(m.comm_cache_hits) / total;
}

TEST(CommMemo, HitRateHoldsAtFleetScale) {
  const RunResult small = run_fleet(16, 4096);
  const RunResult large = run_fleet(96, 4096);
  ASSERT_GT(large.metrics.comm_cache_hits + large.metrics.comm_cache_misses, 0u);
  const double small_ratio = hit_ratio(small.metrics);
  const double large_ratio = hit_ratio(large.metrics);
  // Measured with per-job keying: ~15.6% at 16 servers, ~5.2% at 96.
  // Global-epoch keying collapsed two orders of magnitude between these two
  // points (~49% -> ~0.45%); per-job keying must keep the 96-server point
  // within a small constant factor of the 16-server one, and far above the
  // collapsed value.
  EXPECT_GE(large_ratio, small_ratio / 4.0)
      << "comm-memo hit ratio collapsed with fleet size: " << small_ratio << " -> "
      << large_ratio;
  EXPECT_GE(large_ratio, 0.02) << "comm-memo hit ratio at fleet scale: " << large_ratio;
}

TEST(CommMemo, TinyCapacityEvictsWithoutChangingDecisions) {
  const RunResult roomy = run_fleet(16, 4096);
  const RunResult tiny = run_fleet(16, 2);
  ASSERT_FALSE(roomy.events.empty());
  EXPECT_EQ(roomy.events, tiny.events);
  EXPECT_EQ(roomy.metrics.average_jct_minutes(), tiny.metrics.average_jct_minutes());
  EXPECT_EQ(roomy.metrics.makespan_hours, tiny.metrics.makespan_hours);
  EXPECT_EQ(roomy.metrics.migrations, tiny.metrics.migrations);
  // Two slots can't hold the working set: eviction must show up as misses.
  EXPECT_GT(tiny.metrics.comm_cache_misses, roomy.metrics.comm_cache_misses);
}

// ------------------------------------------- crafted placement payloads

/// One memo slot as restore_state reads it; occupied slots carry a row.
struct CraftedSlot {
  std::uint64_t task = kInvalidTask;
  std::uint64_t epoch = 0;
};

/// An MlfPlacement payload. Rows of occupied slots hold `stride` doubles,
/// capped at 8 so a huge claimed stride does not build a huge payload.
std::string crafted_memo(std::uint64_t stride, std::uint64_t slot_count, std::uint64_t cursor,
                         const std::vector<CraftedSlot>& slots) {
  std::ostringstream os(std::ios::binary);
  io::BinWriter w(os);
  w.u64(stride);
  w.u64(slot_count);
  w.u64(cursor);
  for (const CraftedSlot& slot : slots) {
    w.u64(slot.task);
    w.u64(slot.epoch);
    if (slot.task == kInvalidTask) continue;
    for (std::uint64_t i = 0; i < std::min<std::uint64_t>(stride, 8); ++i) w.f64(1.0);
  }
  for (int i = 0; i < 3; ++i) w.u64(0);  // scanned, hits, misses
  return os.str();
}

/// Restores `bytes` into a placement with a 4-slot memo.
void restore_memo(const std::string& bytes) {
  PlacementParams params;
  params.comm_memo_slots = 4;
  MlfPlacement placement{params};
  std::istringstream in(bytes, std::ios::binary);
  io::BinReader r(in);
  placement.restore_state(r);
}

void expect_memo_rejected(const std::string& bytes, const std::string& needle) {
  try {
    restore_memo(bytes);
    FAIL() << "crafted memo accepted; expected rejection mentioning '" << needle << "'";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

constexpr CraftedSlot kFree{};

TEST(PlacementRestore, WellFormedCraftedMemoAccepted) {
  EXPECT_NO_THROW(restore_memo(crafted_memo(0, 0, 0, {})));  // never used
  EXPECT_NO_THROW(restore_memo(crafted_memo(3, 4, 2, {{5, 1}, {6, 2}, kFree, kFree})));
  EXPECT_NO_THROW(restore_memo(crafted_memo(3, 4, 1, {{5, 1}, {6, 2}, {7, 0}, {8, 4}})));
}

TEST(PlacementRestore, RejectsSlotCountOtherThanTheConfiguredCapacity) {
  expect_memo_rejected(crafted_memo(3, 5, 0, {{5, 1}, kFree, kFree, kFree, kFree}),
                       "5 slots, expected 4");
  expect_memo_rejected(crafted_memo(3, 1ull << 40, 0, {{5, 1}}), "slots, expected 4");
}

TEST(PlacementRestore, RejectsOutOfRangeCursor) {
  expect_memo_rejected(crafted_memo(3, 4, 4, {{5, 1}, {6, 1}, {7, 1}, {8, 1}}),
                       "cursor 4 out of range");
  expect_memo_rejected(crafted_memo(0, 0, 1, {}), "has no slots");
  expect_memo_rejected(crafted_memo(3, 4, 3, {{5, 1}, {6, 2}, kFree, kFree}),
                       "cursor 3 does not follow the 2 filled slots");
}

TEST(PlacementRestore, RejectsRowLargerThanTheBytesLeft) {
  expect_memo_rejected(crafted_memo(1ull << 40, 4, 1, {{5, 1}, kFree, kFree, kFree}),
                       "bytes left");
  expect_memo_rejected(crafted_memo(0, 4, 1, {{5, 1}, kFree, kFree, kFree}), "zero stride");
}

TEST(PlacementRestore, RejectsInconsistentSlotTables) {
  expect_memo_rejected(crafted_memo(3, 4, 0, {kFree, {6, 2}, kFree, kFree}),
                       "slot 1 occupied after a free one");
  expect_memo_rejected(crafted_memo(3, 4, 2, {{5, 1}, {5, 2}, kFree, kFree}),
                       "holds task 5 twice");
  expect_memo_rejected(crafted_memo(3, 4, 0, {kFree, kFree, kFree, kFree}), "holds no slot");
}

TEST(PlacementRestore, StrideThatDoesNotSpanTheFleetFailsOnFirstUse) {
  // Rows of 3 doubles restored into a placement serving an 8-server fleet:
  // the first memo lookup must fail cleanly instead of writing past a row.
  PlacementParams params;
  params.comm_memo_slots = 4;
  MlfPlacement placement{params};
  std::istringstream in(crafted_memo(3, 4, 1, {{0, 0}, kFree, kFree, kFree}), std::ios::binary);
  io::BinReader r(in);
  placement.restore_state(r);

  ClusterConfig config;
  config.server_count = 8;
  Cluster cluster(config);
  JobSpec spec;
  spec.id = 0;
  spec.gpu_request = 2;
  spec.max_iterations = 10;
  auto inst = ModelZoo::instantiate(spec, 0);
  cluster.register_job(std::move(inst.job), std::move(inst.tasks));
  struct NoOps : SchedulerOps {
    bool place(TaskId, ServerId, int) override { return false; }
    void preempt_to_queue(TaskId) override {}
    bool migrate(TaskId, ServerId, int) override { return false; }
    void release(TaskId) override {}
  } ops;
  std::vector<TaskId> queue;
  const SchedulerContext ctx{cluster, queue, ops, 0.0, 0.9, nullptr, kInvalidJob};
  try {
    (void)placement.choose_host(ctx, cluster.task(1), false);
    FAIL() << "memo with 3-wide rows served an 8-server fleet";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("memo_stride_"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace mlfs::core
