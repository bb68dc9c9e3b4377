// Decision pins for every registered scheduler. Each (event_stream_hash,
// events_processed) pair below was captured from the engine that walked
// every registered job on every tick and re-ran Kahn's algorithm per
// iteration; the live-job set and the sealed job DAGs (DESIGN.md §5) must
// reproduce them exactly. Do NOT update a pin to "fix" a failure — a
// mismatch means an engine change moved a decision.
//
// Two cases per scheduler:
//  * PhillyTrace: a small Philly-style trace on a flat fleet.
//  * FaultsRecoveryStreaming: crashes, task kills, every recovery policy
//    (quarantine, retry backoff with a budget, adaptive checkpoints) and
//    the last third of the jobs streamed in through the arrival seam,
//    audited at every event.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdint>
#include <map>
#include <string>

#include "exp/durable.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"

namespace mlfs::sched {
namespace {

struct Pin {
  std::uint64_t event_stream_hash;
  std::size_t events_processed;
};

exp::RunRequest philly_request(const std::string& scheduler) {
  exp::RunRequest r;
  r.label = "pin-philly-" + scheduler;
  r.cluster.server_count = 8;
  r.cluster.gpus_per_server = 4;
  r.engine.seed = 2024;
  r.trace.num_jobs = 90;
  r.trace.duration_hours = 3.0;
  r.trace.seed = 99;
  r.trace.max_gpu_request = 16;
  r.scheduler = scheduler;
  // Low enough that the RL-backed schedulers switch to their policy mid-run.
  r.mlfs_config.rl.warmup_samples = 100;
  return r;
}

exp::RunRequest faults_request(const std::string& scheduler) {
  exp::RunRequest r;
  r.label = "pin-faults-" + scheduler;
  r.cluster.server_count = 8;
  r.cluster.gpus_per_server = 4;
  r.cluster.servers_per_rack = 4;
  r.engine.seed = 4242;
  r.engine.max_sim_time = hours(96.0);
  r.engine.fault.server_mtbf_hours = 12.0;
  r.engine.fault.server_mttr_hours = 0.5;
  r.engine.fault.task_kill_probability = 0.003;
  r.engine.recovery.enabled = true;
  r.engine.recovery.quarantine_enabled = true;
  r.engine.recovery.retry_backoff_enabled = true;
  r.engine.recovery.retry_budget = 4;
  r.engine.recovery.adaptive_checkpoint = true;
  r.engine.audit.enabled = true;
  r.trace.num_jobs = 45;
  r.trace.duration_hours = 4.0;
  r.trace.seed = 313;
  r.trace.max_gpu_request = 8;
  r.scheduler = scheduler;
  r.mlfs_config.rl.warmup_samples = 100;
  return r;
}

const std::map<std::string, Pin>& philly_pins() {
  static const std::map<std::string, Pin> pins = {
      {"MLF-H", {0x4b272e053bced7ffull, 15275}},
      {"MLF-RL", {0x5f4a0c3dd61ed04bull, 15215}},
      {"MLFS", {0x17fe7926f32f0b0dull, 9880}},
      {"TensorFlow", {0xf03c5fed05e90998ull, 15324}},
      {"Tiresias", {0xdd46c5714691c5c8ull, 15255}},
      {"SLAQ", {0x291db9355d8ee916ull, 18676}},
      {"Gandiva", {0x709917c08a2d6977ull, 15394}},
      {"Graphene", {0x31ef99cb6ae9ea6aull, 15190}},
      {"HyperSched", {0xbae2596b7cffe6e4ull, 15166}},
      {"RL", {0xcb835116600a70afull, 15876}},
      {"Optimus", {0xfefbe78038b52d54ull, 15211}},
      {"Cassini", {0x845eca84443bbc36ull, 15507}},
  };
  return pins;
}

const std::map<std::string, Pin>& faults_pins() {
  static const std::map<std::string, Pin> pins = {
      {"MLF-H", {0xe94098ce5b01c320ull, 7971}},
      {"MLF-RL", {0xe748b130d6fe6641ull, 7802}},
      {"MLFS", {0xcab1fdae490c6a9dull, 5408}},
      {"TensorFlow", {0xd9b72d1fa74c941full, 7349}},
      {"Tiresias", {0x849c901cb3c36676ull, 7417}},
      {"SLAQ", {0xe0f1a1dcdc1b99e4ull, 7967}},
      {"Gandiva", {0xe14e1b950e858c7bull, 7799}},
      {"Graphene", {0xa8ba3332d74117a2ull, 7160}},
      {"HyperSched", {0x5fed12debae0794aull, 7993}},
      {"RL", {0x70005996d74a59a8ull, 7706}},
      {"Optimus", {0x255463088af71420ull, 7350}},
      {"Cassini", {0x2beada66a6fc2bd6ull, 7817}},
  };
  return pins;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxull", static_cast<unsigned long long>(v));
  return buf;
}

void expect_pin(const std::string& scheduler, const RunMetrics& m, const Pin& pin) {
  EXPECT_EQ(m.event_stream_hash, pin.event_stream_hash)
      << scheduler << ": got {" << hex(m.event_stream_hash) << ", " << m.events_processed
      << "}";
  EXPECT_EQ(m.events_processed, pin.events_processed) << scheduler;
}

class DecisionPins : public ::testing::TestWithParam<std::string> {};

TEST_P(DecisionPins, PhillyTrace) {
  const std::string& scheduler = GetParam();
  expect_pin(scheduler, exp::execute_run(philly_request(scheduler)),
             philly_pins().at(scheduler));
}

TEST_P(DecisionPins, FaultsRecoveryStreaming) {
  const std::string& scheduler = GetParam();
  exp::RunRequest request = faults_request(scheduler);
  const auto script = exp::split_streamed_tail(request, 15);
  const RunMetrics m = exp::run_streaming(request, script);
  EXPECT_EQ(m.jobs_injected, 15u);
  expect_pin(scheduler, m, faults_pins().at(scheduler));
}

TEST(DecisionPinsCoverage, EveryRegisteredSchedulerIsPinned) {
  for (const std::string& name : exp::registered_scheduler_names()) {
    EXPECT_TRUE(philly_pins().count(name) == 1 && faults_pins().count(name) == 1) << name;
  }
  EXPECT_EQ(philly_pins().size(), exp::registered_scheduler_names().size());
}

INSTANTIATE_TEST_SUITE_P(AllRegistered, DecisionPins,
                         ::testing::ValuesIn(exp::registered_scheduler_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace mlfs::sched
