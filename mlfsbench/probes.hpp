// Probes the benchmark attaches from outside the simulator: a forwarding
// Scheduler that clocks each scheduling round, a forwarding MLF-C load
// controller, and a counting EngineObserver. Forwarding keeps name(),
// sched_stats(), the snapshot hooks and audit_invariants identical, so
// the engine's config fingerprint and decisions are unchanged; the
// benchmark verifies that through the event-stream hash of every run.
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

#include "hostspeed.hpp"
#include "sim/engine.hpp"
#include "sim/event_log.hpp"
#include "sim/scheduler.hpp"

namespace mlfsbench {

using Clock = CpuClock;
/// Elapsed time: the run's budget and the wall/CPU diagnostics.
using WallClock = std::chrono::steady_clock;

template <typename TimePoint>
double seconds_since(TimePoint start) {
  return std::chrono::duration<double>(TimePoint::clock::now() - start).count();
}

/// Times every schedule() call (two CPU clock reads). Rounds entered with an
/// empty queue return at once, so they are counted but kept out of the
/// round-time samples. With `trace_hooks` the arrival/completion hooks are
/// timed too; the timed run leaves that off.
class TimedScheduler final : public mlfs::Scheduler {
 public:
  TimedScheduler(mlfs::Scheduler& inner, bool trace_hooks)
      : inner_(inner), trace_hooks_(trace_hooks) {}

  std::string name() const override { return inner_.name(); }
  mlfs::SchedStats sched_stats() const override { return inner_.sched_stats(); }

  void schedule(mlfs::SchedulerContext& ctx) override {
    const bool idle = ctx.queue.empty();
    const Clock::time_point start = Clock::now();
    inner_.schedule(ctx);
    const double seconds = seconds_since(start);
    ++rounds_;
    busy_seconds_ += seconds;
    if (!idle) round_seconds_.push_back(seconds);
  }

  void on_job_arrival(const mlfs::Job& job, mlfs::SimTime now) override {
    if (!trace_hooks_) return inner_.on_job_arrival(job, now);
    const Clock::time_point start = Clock::now();
    inner_.on_job_arrival(job, now);
    hook_seconds_ += seconds_since(start);
  }
  void on_job_complete(const mlfs::Job& job, mlfs::SimTime now) override {
    ++completions_;
    if (!trace_hooks_) return inner_.on_job_complete(job, now);
    const Clock::time_point start = Clock::now();
    inner_.on_job_complete(job, now);
    hook_seconds_ += seconds_since(start);
  }

  void audit_invariants(const mlfs::Cluster& cluster, mlfs::SimTime now) const override {
    inner_.audit_invariants(cluster, now);
  }
  void save_state(std::ostream& os) const override { inner_.save_state(os); }
  void restore_state(std::istream& is) override { inner_.restore_state(is); }

  std::size_t rounds() const { return rounds_; }
  double busy_seconds() const { return busy_seconds_; }
  /// Host time of each round entered with tasks waiting.
  const std::vector<double>& round_seconds() const { return round_seconds_; }
  double hook_seconds() const { return hook_seconds_; }
  /// Jobs that left the system: completed or failed permanently.
  std::size_t completions() const { return completions_; }

 private:
  mlfs::Scheduler& inner_;
  bool trace_hooks_;
  std::size_t rounds_ = 0;
  double busy_seconds_ = 0.0;
  std::vector<double> round_seconds_;
  double hook_seconds_ = 0.0;
  std::size_t completions_ = 0;
};

/// Times every before_schedule() call of a load controller (MLF-C).
class TimedController final : public mlfs::LoadController {
 public:
  explicit TimedController(mlfs::LoadController& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  void before_schedule(mlfs::Cluster& cluster, const std::vector<mlfs::TaskId>& queue,
                       mlfs::SimTime now) override {
    const Clock::time_point start = Clock::now();
    inner_.before_schedule(cluster, queue, now);
    busy_seconds_ += seconds_since(start);
  }
  void save_state(std::ostream& os) const override { inner_.save_state(os); }
  void restore_state(std::istream& is) override { inner_.restore_state(is); }

  double busy_seconds() const { return busy_seconds_; }

 private:
  mlfs::LoadController& inner_;
  double busy_seconds_ = 0.0;
};

/// Counts the scheduler's effects as the engine reports them.
class CountingObserver final : public mlfs::EngineObserver {
 public:
  void on_task_placed(mlfs::SimTime, mlfs::TaskId, mlfs::ServerId, int) override {
    ++placements;
  }
  void on_task_released(mlfs::SimTime, mlfs::TaskId) override { ++releases; }
  void on_task_preempted(mlfs::SimTime, mlfs::TaskId) override { ++preemptions; }
  void on_task_migrated(mlfs::SimTime, mlfs::TaskId, mlfs::ServerId, mlfs::ServerId) override {
    ++migrations;
  }

  std::size_t placements = 0;
  std::size_t releases = 0;
  std::size_t preemptions = 0;
  std::size_t migrations = 0;
};

}  // namespace mlfsbench
