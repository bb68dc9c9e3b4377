#include "workload/job.hpp"

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/binio.hpp"
#include "common/expect.hpp"

namespace mlfs {

std::string to_string(MlAlgorithm a) {
  switch (a) {
    case MlAlgorithm::AlexNet: return "AlexNet";
    case MlAlgorithm::ResNet: return "ResNet";
    case MlAlgorithm::Mlp: return "MLP";
    case MlAlgorithm::Lstm: return "LSTM";
    case MlAlgorithm::Svm: return "SVM";
  }
  return "?";
}

std::string to_string(CommStructure c) {
  switch (c) {
    case CommStructure::ParameterServer: return "parameter-server";
    case CommStructure::AllReduce: return "all-reduce";
  }
  return "?";
}

std::string to_string(StopPolicy p) {
  switch (p) {
    case StopPolicy::FixedIterations: return "fixed-iterations";
    case StopPolicy::OptStop: return "opt-stop";
    case StopPolicy::AccuracyOnly: return "accuracy-only";
  }
  return "?";
}

Job::Job(JobSpec spec, Dag dag, std::vector<TaskId> task_ids, double total_params_m,
         double ideal_iteration_seconds)
    : spec_(std::move(spec)),
      dag_(std::move(dag)),
      task_ids_(std::move(task_ids)),
      total_params_m_(total_params_m),
      ideal_iteration_seconds_(ideal_iteration_seconds),
      curve_(spec_.curve),
      active_policy_(spec_.stop_policy),
      target_iterations_(spec_.max_iterations) {
  MLFS_EXPECT(dag_.sealed());
  MLFS_EXPECT(dag_.node_count() == task_ids_.size());
  MLFS_EXPECT(!task_ids_.empty());
  MLFS_EXPECT(spec_.max_iterations >= 1);
  MLFS_EXPECT(total_params_m_ > 0.0);
  MLFS_EXPECT(ideal_iteration_seconds_ > 0.0);
}

void Job::complete_iteration() {
  const int next = completed_ + 1;
  MLFS_EXPECT(next <= spec_.max_iterations);
  last_reduction_ = curve_.observed_delta_loss(next);
  cumulative_loss_reduction_ += last_reduction_;
  completed_ = next;
}

void Job::rollback_iterations(int n) {
  MLFS_EXPECT(n >= 0);
  const int drop = std::min(n, completed_);
  if (drop == 0) return;
  // Newest first: the same values complete_iteration added, subtracted in
  // reverse order, so the cumulative sum unwinds bit-identically.
  for (int i = 0; i < drop; ++i) {
    cumulative_loss_reduction_ -= curve_.observed_delta_loss(completed_);
    --completed_;
  }
  last_reduction_ = completed_ > 0 ? curve_.observed_delta_loss(completed_) : 0.0;
}

bool Job::downgrade_policy(StopPolicy policy) {
  // Policies are ordered: FixedIterations < OptStop < AccuracyOnly in
  // "aggressiveness"; min_allowed_policy bounds how far we may go.
  const int want = static_cast<int>(policy);
  const int active = static_cast<int>(active_policy_);
  const int allowed = static_cast<int>(spec_.min_allowed_policy);
  if (want <= active || want > allowed) return false;
  active_policy_ = policy;
  return true;
}

void Job::set_target_iterations(int n) {
  MLFS_EXPECT(n >= 0);
  target_iterations_ = std::min(n, spec_.max_iterations);
  // A job cannot un-run iterations it already finished.
  target_iterations_ = std::max(target_iterations_, completed_iterations());
}

void Job::save_state(io::BinWriter& w) const {
  w.i64(completed_);
  w.f64(cumulative_loss_reduction_);
  w.u8(static_cast<std::uint8_t>(active_policy_));
  w.i64(target_iterations_);
  w.f64(deadline_);
  w.u8(static_cast<std::uint8_t>(state_));
  w.f64(completion_time_);
  w.f64(waiting_time_);
  w.i64(iterations_at_deadline_);
}

void Job::restore_state(io::BinReader& r) {
  // Read everything into locals and adopt it only once it all checks out,
  // so a rejected payload leaves the job unchanged.
  const std::int64_t completed = r.i64();
  const double cumulative = r.f64();
  const std::uint8_t policy = r.u8();
  const std::int64_t target = r.i64();
  const double deadline = r.f64();
  const std::uint8_t state = r.u8();
  const double completion_time = r.f64();
  const double waiting_time = r.f64();
  const std::int64_t at_deadline = r.i64();

  const auto reject = [this](const std::string& what) {
    throw ContractViolation("job " + std::to_string(id()) + " restore: " + what);
  };
  const std::int64_t max = spec_.max_iterations;
  if (completed < 0 || completed > max) {
    reject("completed iterations " + std::to_string(completed) + " outside [0, " +
           std::to_string(max) + "]");
  }
  if (target < completed || target > max) {
    reject("target iterations " + std::to_string(target) + " outside [" +
           std::to_string(completed) + ", " + std::to_string(max) + "]");
  }
  if (policy > static_cast<std::uint8_t>(StopPolicy::AccuracyOnly)) {
    reject("stop policy byte " + std::to_string(policy) + " is not a StopPolicy");
  }
  if (state > static_cast<std::uint8_t>(JobState::Failed)) {
    reject("state byte " + std::to_string(state) + " is not a JobState");
  }

  completed_ = static_cast<int>(completed);
  last_reduction_ = completed_ > 0 ? curve_.observed_delta_loss(completed_) : 0.0;
  cumulative_loss_reduction_ = cumulative;
  active_policy_ = static_cast<StopPolicy>(policy);
  target_iterations_ = static_cast<int>(target);
  deadline_ = deadline;
  state_ = static_cast<JobState>(state);
  completion_time_ = completion_time;
  waiting_time_ = waiting_time;
  iterations_at_deadline_ = static_cast<int>(at_deadline);
}

double Job::accuracy_by_deadline() const {
  // If the deadline never passed before completion, the job's final
  // accuracy counts; otherwise the accuracy frozen at the deadline does.
  if (iterations_at_deadline_ >= 0 &&
      (completion_time_ < 0.0 || completion_time_ > deadline_)) {
    return curve_.accuracy_at(iterations_at_deadline_);
  }
  return curve_.accuracy_at(completed_iterations());
}

}  // namespace mlfs
