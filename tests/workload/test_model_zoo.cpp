#include "workload/model_zoo.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace mlfs {
namespace {

JobSpec base_spec(MlAlgorithm algorithm, int gpus, CommStructure comm) {
  JobSpec spec;
  spec.id = 0;
  spec.algorithm = algorithm;
  spec.comm = comm;
  spec.gpu_request = gpus;
  spec.max_iterations = 50;
  spec.seed = 1234;
  spec.curve.max_accuracy = 0.9;
  spec.curve.kappa = 10.0;
  return spec;
}

TEST(ModelZoo, ProfilesCoverAllAlgorithms) {
  EXPECT_EQ(ModelZoo::algorithm_count(), 5u);
  for (std::size_t i = 0; i < ModelZoo::algorithm_count(); ++i) {
    const MlAlgorithm a = ModelZoo::algorithm_at(i);
    const ModelProfile& p = ModelZoo::profile(a);
    EXPECT_EQ(p.algorithm, a);
    EXPECT_GT(p.params_m_min, 0.0);
    EXPECT_LE(p.params_m_min, p.params_m_max);
    EXPECT_GT(p.base_iteration_seconds, 0.0);
  }
}

TEST(ModelZoo, SequentialStyleBuildsChain) {
  // MLP/AlexNet: "partitioned the model sequentially" (§4.1).
  const auto inst =
      ModelZoo::instantiate(base_spec(MlAlgorithm::Mlp, 4, CommStructure::AllReduce), 0);
  const Dag& dag = inst.job.dag();
  EXPECT_EQ(dag.node_count(), 4u);  // no PS under all-reduce
  const auto children = [&dag](std::size_t u) {
    const auto kids = dag.children(u);
    return std::vector<std::size_t>(kids.begin(), kids.end());
  };
  EXPECT_EQ(children(0), std::vector<std::size_t>{1});
  EXPECT_EQ(children(1), std::vector<std::size_t>{2});
  EXPECT_EQ(children(2), std::vector<std::size_t>{3});
  EXPECT_TRUE(dag.is_sink(3));
}

TEST(ModelZoo, ParameterServerAddsSinkTask) {
  const auto inst =
      ModelZoo::instantiate(base_spec(MlAlgorithm::Mlp, 4, CommStructure::ParameterServer), 0);
  EXPECT_EQ(inst.job.task_count(), 5u);
  const Task& ps = inst.tasks.back();
  EXPECT_TRUE(ps.is_parameter_server);
  EXPECT_TRUE(inst.job.dag().is_sink(4));
  EXPECT_FALSE(inst.job.dag().parents(4).empty());
  // Exactly one PS per job.
  int ps_count = 0;
  for (const Task& t : inst.tasks) ps_count += t.is_parameter_server ? 1 : 0;
  EXPECT_EQ(ps_count, 1);
}

TEST(ModelZoo, LayeredStyleHasParallelStages) {
  // ResNet/LSTM: "partitioned each layer into several parts" — some tasks
  // must share a DAG layer.
  const auto inst =
      ModelZoo::instantiate(base_spec(MlAlgorithm::ResNet, 8, CommStructure::AllReduce), 0);
  const auto layers = inst.job.dag().layers();
  std::size_t max_layer = 0;
  for (const auto l : layers) max_layer = std::max(max_layer, l);
  // 8 partitions in 2 stages of width 4.
  EXPECT_EQ(max_layer, 1u);
  std::size_t width0 = 0;
  for (const auto l : layers) width0 += l == 0 ? 1 : 0;
  EXPECT_EQ(width0, 4u);
}

TEST(ModelZoo, SvmIsDataParallelOnly) {
  const auto inst =
      ModelZoo::instantiate(base_spec(MlAlgorithm::Svm, 4, CommStructure::AllReduce), 0);
  EXPECT_EQ(inst.job.dag().edge_count(), 0u);  // independent workers
  // Every worker holds the full model: S_k / S_J == 1 for all.
  for (const Task& t : inst.tasks) {
    EXPECT_DOUBLE_EQ(t.partition_params_m, inst.job.total_params_m());
  }
}

TEST(ModelZoo, PartitionSizesSumToModel) {
  const auto inst =
      ModelZoo::instantiate(base_spec(MlAlgorithm::AlexNet, 8, CommStructure::AllReduce), 0);
  double sum = 0.0;
  for (const Task& t : inst.tasks) sum += t.partition_params_m;
  EXPECT_NEAR(sum, inst.job.total_params_m(), 1e-9);
  const ModelProfile& prof = ModelZoo::profile(MlAlgorithm::AlexNet);
  EXPECT_GE(inst.job.total_params_m(), prof.params_m_min);
  EXPECT_LE(inst.job.total_params_m(), prof.params_m_max);
}

TEST(ModelZoo, TaskIdsAreContiguousFromFirst) {
  const auto inst =
      ModelZoo::instantiate(base_spec(MlAlgorithm::Lstm, 4, CommStructure::ParameterServer), 100);
  for (std::size_t i = 0; i < inst.tasks.size(); ++i) {
    EXPECT_EQ(inst.tasks[i].id, 100u + i);
    EXPECT_EQ(inst.job.task_at(i), 100u + i);
    EXPECT_EQ(inst.tasks[i].local_index, i);
  }
}

TEST(ModelZoo, DemandsWithinPlaceableBounds) {
  // Every generated task must be placeable on an idle server under the
  // default overload threshold 0.9 (nominal demand view).
  for (std::size_t a = 0; a < ModelZoo::algorithm_count(); ++a) {
    for (const int gpus : {1, 2, 8, 32}) {
      auto spec = base_spec(ModelZoo::algorithm_at(a), gpus, CommStructure::ParameterServer);
      if (spec.algorithm == MlAlgorithm::Svm && gpus > 8) continue;
      const auto inst = ModelZoo::instantiate(spec, 0);
      for (const Task& t : inst.tasks) {
        EXPECT_LE(t.demand[Resource::Gpu], 0.9);
        EXPECT_LE(t.demand[Resource::Cpu], 0.9);
        EXPECT_LE(t.demand[Resource::Mem], 0.9);
        EXPECT_LE(t.demand[Resource::Net], 0.9);
        EXPECT_GT(t.base_compute_seconds, 0.0);
        EXPECT_GT(t.state_size_mb, 0.0);
        EXPECT_GE(t.usage_bias, 0.8);
        EXPECT_LE(t.usage_bias, 1.45);
      }
    }
  }
}

TEST(ModelZoo, DeterministicPerSeed) {
  const auto spec = base_spec(MlAlgorithm::ResNet, 8, CommStructure::ParameterServer);
  const auto a = ModelZoo::instantiate(spec, 0);
  const auto b = ModelZoo::instantiate(spec, 0);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.tasks[i].partition_params_m, b.tasks[i].partition_params_m);
    EXPECT_DOUBLE_EQ(a.tasks[i].base_compute_seconds, b.tasks[i].base_compute_seconds);
    EXPECT_DOUBLE_EQ(a.tasks[i].demand[Resource::Gpu], b.tasks[i].demand[Resource::Gpu]);
  }
  EXPECT_DOUBLE_EQ(a.job.ideal_iteration_seconds(), b.job.ideal_iteration_seconds());
}

TEST(ModelZoo, DeadlineFollowsPaperFormula) {
  // deadline = arrival + max(1.1 * t_e, t_r) (§4.1).
  auto spec = base_spec(MlAlgorithm::Mlp, 2, CommStructure::AllReduce);
  spec.arrival = 1000.0;
  spec.deadline_slack_hours = 0.5;  // tiny t_r: 1.1 t_e should dominate for long jobs
  spec.max_iterations = 500;
  auto inst = ModelZoo::instantiate(spec, 0);
  const double te = inst.job.estimated_execution_seconds();
  EXPECT_NEAR(inst.job.deadline(), 1000.0 + std::max(1.1 * te, hours(0.5)), 1e-6);

  spec.deadline_slack_hours = 24.0;  // huge t_r dominates for short jobs
  spec.max_iterations = 5;
  inst = ModelZoo::instantiate(spec, 0);
  EXPECT_NEAR(inst.job.deadline(), 1000.0 + hours(24.0), 1e-6);
}

TEST(ModelZoo, IdealIterationTimeSequentialSumsPartitions) {
  // For a sequential chain the critical path includes every partition.
  auto spec = base_spec(MlAlgorithm::AlexNet, 4, CommStructure::AllReduce);
  const auto inst = ModelZoo::instantiate(spec, 0);
  double sum = 0.0;
  for (const Task& t : inst.tasks) sum += t.base_compute_seconds;
  EXPECT_GE(inst.job.ideal_iteration_seconds(), sum);  // + comm time
}

}  // namespace
}  // namespace mlfs
