// The placement index: the cluster's incremental load index (underloaded
// partition plus refresh-time utilization and least-loaded-GPU caches) and
// the fused linear scan MlfPlacement::choose_host runs over it. The scan's
// edge cases (no candidates, a single feasible server, the migrating
// task's own server) and a randomized sweep are checked against the
// from-first-principles reference chooser; the cluster-level tests pin the
// index's contracts (cache == live state, noop-reindex dedupe, the
// reference view).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "core/placement.hpp"
#include "reference_placement.hpp"
#include "sim/cluster.hpp"
#include "workload/model_zoo.hpp"

namespace mlfs {
namespace {

constexpr double kHr = 0.85;

struct NoopOps : SchedulerOps {
  bool place(TaskId, ServerId, int) override { return false; }
  void preempt_to_queue(TaskId) override {}
  bool migrate(TaskId, ServerId, int) override { return false; }
  void release(TaskId) override {}
};

SchedulerContext context(Cluster& cluster, NoopOps& ops, std::vector<TaskId>& queue) {
  return SchedulerContext{cluster, queue, ops, 0.0, kHr, nullptr, kInvalidJob};
}

JobId add_job(Cluster& cluster, int gpus, std::uint64_t seed = 3,
              MlAlgorithm algorithm = MlAlgorithm::Mlp) {
  JobSpec spec;
  spec.id = static_cast<JobId>(cluster.job_count());
  spec.algorithm = algorithm;
  spec.comm = CommStructure::AllReduce;
  spec.gpu_request = gpus;
  spec.max_iterations = 10;
  spec.seed = seed;
  auto inst = ModelZoo::instantiate(spec, static_cast<TaskId>(cluster.task_count()));
  cluster.register_job(std::move(inst.job), std::move(inst.tasks));
  return spec.id;
}

/// Stacks single-task jobs onto GPU 0 of `server` until it is overloaded.
void overload(Cluster& cluster, ServerId server) {
  while (!cluster.server(server).overloaded(kHr)) {
    const JobId id = add_job(cluster, 1, 100 + cluster.job_count(), MlAlgorithm::ResNet);
    cluster.place_task(cluster.job(id).task_at(0), server, 0);
  }
}

// --- fused candidate scan ---------------------------------------------------

TEST(PlacementIndex, EmptyIndexReturnsNothing) {
  ClusterConfig cfg;
  cfg.server_count = 3;
  cfg.gpus_per_server = 1;
  Cluster cluster(cfg);
  for (ServerId s = 0; s < cluster.server_count(); ++s) overload(cluster, s);
  const JobId id = add_job(cluster, 1);
  NoopOps ops;
  std::vector<TaskId> queue;
  const core::MlfPlacement placement{core::PlacementParams{}};
  EXPECT_TRUE(cluster.underloaded_index(kHr).empty());
  EXPECT_FALSE(placement
                   .choose_host(context(cluster, ops, queue),
                                cluster.task(cluster.job(id).task_at(0)), false)
                   .has_value());
  EXPECT_EQ(placement.stats().candidates_scanned, 0u);
}

TEST(PlacementIndex, SingleFeasibleServerSurvivesPruning) {
  ClusterConfig cfg;
  cfg.server_count = 6;
  cfg.gpus_per_server = 1;
  Cluster cluster(cfg);
  for (ServerId s = 0; s < cluster.server_count(); ++s) {
    if (s != 4) overload(cluster, s);
  }
  const JobId id = add_job(cluster, 1);
  NoopOps ops;
  std::vector<TaskId> queue;
  const core::MlfPlacement placement{core::PlacementParams{}};
  const auto host = placement.choose_host(context(cluster, ops, queue),
                                          cluster.task(cluster.job(id).task_at(0)), false);
  ASSERT_TRUE(host.has_value());
  EXPECT_EQ(host->server, 4u);
  EXPECT_EQ(placement.stats().candidates_scanned, 1u);
}

TEST(PlacementIndex, SkipExcludesMigratingSelf) {
  ClusterConfig cfg;
  cfg.server_count = 3;
  cfg.gpus_per_server = 2;
  Cluster cluster(cfg);
  const JobId id = add_job(cluster, 1);
  const TaskId tid = cluster.job(id).task_at(0);
  cluster.place_task(tid, 1, 0);
  overload(cluster, 2);
  NoopOps ops;
  std::vector<TaskId> queue;
  const core::MlfPlacement placement{core::PlacementParams{}};
  // Server 1 is underloaded (and the comm-affinity ideal for nothing), but
  // a migrating task must never be "moved" onto its own server.
  const auto host = placement.choose_host(context(cluster, ops, queue), cluster.task(tid),
                                          /*migrating=*/true);
  ASSERT_TRUE(host.has_value());
  EXPECT_EQ(host->server, 0u);
  EXPECT_EQ(placement.stats().candidates_scanned, 1u);  // server 0 only
}

TEST(PlacementIndex, RandomizedEquivalenceWithBruteForce) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    ClusterConfig cfg;
    cfg.server_count = 4 + rng() % 9;
    cfg.gpus_per_server = 1 + static_cast<int>(rng() % 4);
    cfg.servers_per_rack = static_cast<int>(rng() % 3);
    Cluster cluster(cfg);
    const auto n = static_cast<std::uint64_t>(cluster.server_count());
    // Random background load, including some servers pushed past hr.
    for (int j = 0; j < 24; ++j) {
      const JobId id = add_job(cluster, 1, rng(), rng() % 2 ? MlAlgorithm::Svm
                                                            : MlAlgorithm::ResNet);
      const ServerId s = static_cast<ServerId>(rng() % n);
      cluster.place_task(cluster.job(id).task_at(0), s,
                         static_cast<int>(rng() % static_cast<std::uint64_t>(
                                                      cluster.server(s).gpu_count())));
    }
    const auto last = static_cast<ServerId>(n - 1);
    if (rng() % 3 == 0 && cluster.server(last).task_count() == 0) {
      cluster.set_server_up(last, false);
    }
    const JobId gang = add_job(cluster, 3, rng());
    cluster.place_task(cluster.job(gang).task_at(0), 0, 0);

    core::PlacementParams params;
    params.use_topology = rng() % 2 == 0;
    params.spread_racks = rng() % 2 == 0;
    const core::MlfPlacement placement{params};
    NoopOps ops;
    std::vector<TaskId> queue;
    const SchedulerContext ctx = context(cluster, ops, queue);
    for (const Job& job : cluster.jobs()) {
      for (const TaskId tid : job.tasks()) {
        const Task& task = cluster.task(tid);
        for (const bool migrating : {false, true}) {
          if (migrating && !task.placed()) continue;
          const auto got = placement.choose_host(ctx, task, migrating);
          const auto want = core::reference::choose_host(params, ctx, task, migrating);
          ASSERT_EQ(got.has_value(), want.has_value()) << "trial " << trial;
          if (got) {
            EXPECT_EQ(got->server, want->server) << "trial " << trial;
            EXPECT_EQ(got->gpu, want->gpu) << "trial " << trial;
          }
        }
      }
    }
  }
}

// --- cluster-level contracts -----------------------------------------------

TEST(PlacementIndex, ClusterIndexMirrorsUnderloadedPartition) {
  ClusterConfig cfg;
  cfg.server_count = 6;
  cfg.gpus_per_server = 2;
  Cluster cluster(cfg);
  const JobId id = add_job(cluster, 2);
  cluster.place_task(cluster.job(id).task_at(0), 0, 0);
  cluster.place_task(cluster.job(id).task_at(1), 0, 1);
  overload(cluster, 3);
  cluster.set_server_up(5, false);

  const std::vector<ServerId>& index = cluster.underloaded_index(kHr);
  EXPECT_EQ(index, (std::vector<ServerId>{0, 1, 2, 4}));
  for (const ServerId s : index) {
    const Server& live = cluster.server(s);
    const int least = live.least_loaded_gpu();
    for (std::size_t r = 0; r < kNumResources; ++r) {
      EXPECT_EQ(cluster.cached_utilization(s).at(r), live.utilization().at(r));
    }
    EXPECT_EQ(cluster.cached_least_gpu(s), least);
    EXPECT_EQ(cluster.cached_least_gpu_load(s), live.gpu_load(least));
  }
  EXPECT_EQ(cluster.overloaded_servers(kHr), (std::vector<ServerId>{3}));
}

TEST(PlacementIndex, NoopReindexSkipsUnchangedDirtyServers) {
  ClusterConfig cfg;
  cfg.server_count = 4;
  cfg.gpus_per_server = 2;
  Cluster cluster(cfg);
  const JobId id = add_job(cluster, 1);
  const TaskId tid = cluster.job(id).task_at(0);

  // Prime the index, then make a place/unplace round trip that leaves the
  // server's load exactly where it started.
  (void)cluster.underloaded_servers(kHr);
  const LoadIndexStats before = cluster.load_index_stats();
  cluster.place_task(tid, 2, 0);
  cluster.unplace_task(tid);
  (void)cluster.underloaded_servers(kHr);
  const LoadIndexStats after = cluster.load_index_stats();
  // The dirty server was re-evaluated but nothing changed: that must be
  // counted as a noop, not a reindex.
  EXPECT_GT(after.noop_reindexes, before.noop_reindexes);
  EXPECT_EQ(after.servers_reindexed, before.servers_reindexed);

  // A placement that sticks must still count as a real reindex.
  cluster.place_task(tid, 2, 0);
  (void)cluster.underloaded_servers(kHr);
  EXPECT_GT(cluster.load_index_stats().servers_reindexed, after.servers_reindexed);
}

TEST(PlacementIndex, UnderloadedIndexMatchesVectorReturn) {
  ClusterConfig cfg;
  cfg.server_count = 5;
  cfg.gpus_per_server = 2;
  Cluster cluster(cfg);
  const JobId id = add_job(cluster, 2);
  cluster.place_task(cluster.job(id).task_at(0), 1, 0);
  cluster.place_task(cluster.job(id).task_at(1), 1, 1);

  EXPECT_EQ(cluster.underloaded_index(kHr), cluster.underloaded_servers(kHr));
  // The reference view follows later mutations like a fresh copy does.
  overload(cluster, 2);
  const std::vector<ServerId>& view = cluster.underloaded_index(kHr);
  EXPECT_EQ(view, cluster.underloaded_servers(kHr));
  EXPECT_EQ(std::find(view.begin(), view.end(), 2u), view.end());
}

}  // namespace
}  // namespace mlfs
