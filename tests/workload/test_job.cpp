#include "workload/job.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include "common/binio.hpp"
#include "workload/model_zoo.hpp"

namespace mlfs {
namespace {

Job make_job(StopPolicy policy = StopPolicy::FixedIterations,
             StopPolicy min_allowed = StopPolicy::AccuracyOnly, double noise_sigma = 0.0) {
  JobSpec spec;
  spec.id = 0;
  spec.algorithm = MlAlgorithm::Mlp;
  spec.comm = CommStructure::AllReduce;
  spec.gpu_request = 2;
  spec.max_iterations = 20;
  spec.stop_policy = policy;
  spec.min_allowed_policy = min_allowed;
  spec.curve.max_accuracy = 0.8;
  spec.curve.kappa = 5.0;
  spec.curve.noise_sigma = noise_sigma;
  spec.curve.noise_seed = 11;
  spec.seed = 7;
  return std::move(ModelZoo::instantiate(spec, 0).job);
}

TEST(Job, IterationProgressAccumulatesLossReductions) {
  Job job = make_job();
  EXPECT_EQ(job.completed_iterations(), 0);
  EXPECT_EQ(job.last_loss_reduction(), 0.0);
  EXPECT_DOUBLE_EQ(job.current_accuracy(), 0.0);
  job.complete_iteration();
  job.complete_iteration();
  EXPECT_EQ(job.completed_iterations(), 2);
  EXPECT_GT(job.cumulative_loss_reduction(), 0.0);
  EXPECT_EQ(job.last_loss_reduction(), job.curve().observed_delta_loss(2));
  EXPECT_NEAR(job.cumulative_loss_reduction(),
              job.curve().observed_delta_loss(1) + job.curve().observed_delta_loss(2), 1e-12);
  EXPECT_GT(job.current_accuracy(), 0.0);
}

// The job derives its per-iteration history from the curve instead of
// storing it. This oracle keeps the history the way the job used to (one
// double per completed iteration, popped on rollback) and the job must
// match it bit for bit through interleaved completes and rollbacks.
struct HistoryOracle {
  std::vector<double> reductions;
  double cumulative = 0.0;

  void complete(const LossCurve& curve) {
    const double dl = curve.observed_delta_loss(static_cast<int>(reductions.size()) + 1);
    reductions.push_back(dl);
    cumulative += dl;
  }
  void rollback(int n) {
    for (int i = 0; i < n && !reductions.empty(); ++i) {
      cumulative -= reductions.back();
      reductions.pop_back();
    }
  }
  double last() const { return reductions.empty() ? 0.0 : reductions.back(); }
};

void expect_matches(const Job& job, const HistoryOracle& oracle) {
  EXPECT_EQ(job.completed_iterations(), static_cast<int>(oracle.reductions.size()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(job.cumulative_loss_reduction()),
            std::bit_cast<std::uint64_t>(oracle.cumulative));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(job.last_loss_reduction()),
            std::bit_cast<std::uint64_t>(oracle.last()));
}

TEST(Job, RollbackMatchesVectorOracleBitForBit) {
  for (const double sigma : {0.0, 0.3}) {
    Job job = make_job(StopPolicy::FixedIterations, StopPolicy::AccuracyOnly, sigma);
    HistoryOracle oracle;
    const auto complete = [&](int n) {
      for (int i = 0; i < n; ++i) {
        job.complete_iteration();
        oracle.complete(job.curve());
      }
    };
    const auto rollback = [&](int n) {
      job.rollback_iterations(n);
      oracle.rollback(n);
    };
    complete(9);
    expect_matches(job, oracle);
    rollback(4);
    expect_matches(job, oracle);
    complete(7);
    expect_matches(job, oracle);
    rollback(0);
    expect_matches(job, oracle);
    rollback(3);
    complete(2);
    expect_matches(job, oracle);
    rollback(100);  // capped at the completed count
    expect_matches(job, oracle);
    EXPECT_EQ(job.completed_iterations(), 0);
    complete(20);
    expect_matches(job, oracle);
  }
}

TEST(Job, CannotExceedMaxIterations) {
  Job job = make_job();
  for (int i = 0; i < 20; ++i) job.complete_iteration();
  EXPECT_THROW(job.complete_iteration(), ContractViolation);
}

TEST(Job, PolicyDowngradeRespectsPermission) {
  Job job = make_job(StopPolicy::FixedIterations, StopPolicy::OptStop);
  EXPECT_TRUE(job.downgrade_policy(StopPolicy::OptStop));
  EXPECT_EQ(job.active_policy(), StopPolicy::OptStop);
  // AccuracyOnly is beyond the permitted bound.
  EXPECT_FALSE(job.downgrade_policy(StopPolicy::AccuracyOnly));
  EXPECT_EQ(job.active_policy(), StopPolicy::OptStop);
}

TEST(Job, PolicyNeverUpgrades) {
  Job job = make_job(StopPolicy::AccuracyOnly, StopPolicy::AccuracyOnly);
  EXPECT_FALSE(job.downgrade_policy(StopPolicy::OptStop));
  EXPECT_EQ(job.active_policy(), StopPolicy::AccuracyOnly);
}

TEST(Job, DowngradeIsIdempotent) {
  Job job = make_job(StopPolicy::FixedIterations, StopPolicy::AccuracyOnly);
  EXPECT_TRUE(job.downgrade_policy(StopPolicy::AccuracyOnly));
  EXPECT_FALSE(job.downgrade_policy(StopPolicy::AccuracyOnly));
}

TEST(Job, TargetIterationsClampedToMaxAndCompleted) {
  Job job = make_job();
  job.set_target_iterations(100);
  EXPECT_EQ(job.target_iterations(), 20);  // clamped to max
  job.complete_iteration();
  job.complete_iteration();
  job.set_target_iterations(1);
  EXPECT_EQ(job.target_iterations(), 2);  // cannot un-run iterations
}

TEST(Job, AccuracyByDeadlineUsesDeadlineFreeze) {
  Job job = make_job();
  job.complete_iteration();
  job.complete_iteration();
  job.record_deadline_progress();  // deadline passed at 2 iterations
  for (int i = 0; i < 5; ++i) job.complete_iteration();
  job.set_completion_time(job.deadline() + 100.0);  // finished after deadline
  EXPECT_DOUBLE_EQ(job.accuracy_by_deadline(), job.curve().accuracy_at(2));
}

TEST(Job, AccuracyByDeadlineUsesFinalWhenOnTime) {
  Job job = make_job();
  for (int i = 0; i < 5; ++i) job.complete_iteration();
  job.set_completion_time(job.deadline() - 100.0);  // finished before deadline
  EXPECT_DOUBLE_EQ(job.accuracy_by_deadline(), job.curve().accuracy_at(5));
}

TEST(Job, WaitingTimeAccumulates) {
  Job job = make_job();
  job.add_waiting_time(10.0);
  job.add_waiting_time(5.5);
  EXPECT_DOUBLE_EQ(job.waiting_time(), 15.5);
}

// -- restore validation --

struct JobPayload {
  std::int64_t completed = 3;
  double cumulative = 0.25;
  std::uint8_t policy = 0;
  std::int64_t target = 20;
  double deadline = 1000.0;
  std::uint8_t state = 1;
  double completion_time = -1.0;
  double waiting_time = 12.5;
  std::int64_t at_deadline = -1;

  std::string bytes() const {
    std::ostringstream os;
    io::BinWriter w(os);
    w.i64(completed);
    w.f64(cumulative);
    w.u8(policy);
    w.i64(target);
    w.f64(deadline);
    w.u8(state);
    w.f64(completion_time);
    w.f64(waiting_time);
    w.i64(at_deadline);
    return os.str();
  }
};

void restore(Job& job, const JobPayload& payload) {
  std::istringstream is(payload.bytes());
  io::BinReader r(is);
  job.restore_state(r);
}

// Rejects the payload with a ContractViolation naming `what`, and leaves
// the job exactly as it was.
void expect_rejected(const JobPayload& payload, const std::string& what) {
  Job job = make_job();
  job.complete_iteration();
  job.add_waiting_time(4.0);
  const double cumulative = job.cumulative_loss_reduction();
  try {
    restore(job, payload);
    FAIL() << "expected the restore to be rejected (" << what << ")";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
  EXPECT_EQ(job.completed_iterations(), 1);
  EXPECT_EQ(job.cumulative_loss_reduction(), cumulative);
  EXPECT_EQ(job.waiting_time(), 4.0);
  EXPECT_EQ(job.state(), JobState::Waiting);
  EXPECT_EQ(job.target_iterations(), 20);
}

TEST(JobRestore, RoundTripPreservesProgress) {
  Job source = make_job(StopPolicy::FixedIterations, StopPolicy::AccuracyOnly, 0.3);
  for (int i = 0; i < 6; ++i) source.complete_iteration();
  source.rollback_iterations(2);
  source.downgrade_policy(StopPolicy::OptStop);
  source.set_state(JobState::Running);
  source.add_waiting_time(3.25);
  std::ostringstream os;
  io::BinWriter w(os);
  source.save_state(w);

  Job copy = make_job(StopPolicy::FixedIterations, StopPolicy::AccuracyOnly, 0.3);
  std::istringstream is(os.str());
  io::BinReader r(is);
  copy.restore_state(r);
  EXPECT_EQ(copy.completed_iterations(), 4);
  EXPECT_EQ(copy.cumulative_loss_reduction(), source.cumulative_loss_reduction());
  EXPECT_EQ(copy.last_loss_reduction(), source.last_loss_reduction());
  EXPECT_EQ(copy.active_policy(), StopPolicy::OptStop);
  EXPECT_EQ(copy.state(), JobState::Running);
  EXPECT_EQ(copy.waiting_time(), 3.25);
  EXPECT_EQ(copy.target_iterations(), source.target_iterations());
}

TEST(JobRestore, AcceptsBoundaryCounts) {
  Job job = make_job();
  JobPayload payload;
  payload.completed = 0;
  payload.target = 0;
  restore(job, payload);
  EXPECT_EQ(job.completed_iterations(), 0);
  EXPECT_EQ(job.last_loss_reduction(), 0.0);
  payload.completed = 20;
  payload.target = 20;
  restore(job, payload);
  EXPECT_EQ(job.completed_iterations(), 20);
  EXPECT_EQ(job.last_loss_reduction(), job.curve().observed_delta_loss(20));
}

TEST(JobRestore, RejectsNegativeCompletedCount) {
  JobPayload payload;
  payload.completed = -1;
  expect_rejected(payload, "completed iterations -1");
}

TEST(JobRestore, RejectsCompletedCountAboveMax) {
  JobPayload payload;
  payload.completed = 21;
  expect_rejected(payload, "completed iterations 21");
}

TEST(JobRestore, RejectsTargetBelowCompleted) {
  JobPayload payload;
  payload.completed = 5;
  payload.target = 4;
  expect_rejected(payload, "target iterations 4");
}

TEST(JobRestore, RejectsTargetAboveMax) {
  JobPayload payload;
  payload.target = 21;
  expect_rejected(payload, "target iterations 21");
}

TEST(JobRestore, RejectsUnknownStopPolicy) {
  JobPayload payload;
  payload.policy = 3;
  expect_rejected(payload, "stop policy byte 3");
}

TEST(JobRestore, RejectsUnknownJobState) {
  JobPayload payload;
  payload.state = 4;
  expect_rejected(payload, "state byte 4");
}

TEST(JobRestore, RejectsTruncatedPayload) {
  const std::string bytes = JobPayload{}.bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Job job = make_job();
    std::istringstream is(bytes.substr(0, cut));
    io::BinReader r(is);
    EXPECT_THROW(job.restore_state(r), ContractViolation) << "cut at " << cut;
    EXPECT_EQ(job.completed_iterations(), 0);
  }
}

}  // namespace
}  // namespace mlfs
