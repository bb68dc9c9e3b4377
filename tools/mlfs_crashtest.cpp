// Crash-kill harness for durable sessions (exp/durable.hpp): snapshots
// plus a write-ahead journal of streamed arrivals.
//
// The last --stream-jobs trace jobs are withheld from the engine and
// streamed into it live (SimEngine::inject_job); every injection is
// written ahead to a per-segment journal, and recovery is snapshot +
// journal replay. Each trial kills a faulty, recovery-enabled,
// stride-1-audited durable run at a *random* event index — not a snapshot
// boundary — recovers it in a second session and requires the result to
// be byte-identical (event_stream_hash and every deterministic RunMetrics
// field) to a run that never crashed, streamed arrivals included.
// --stream-jobs 0 streams nothing: recovery is then the newest stride
// snapshot plus a replay of the events after it.
//
// Two kill modes:
//   * in-process (default): the durable session halts at the kill event
//     without finalizing; its on-disk state is what a crash leaves.
//   * --sigkill: the session runs in a forked child that raise(SIGKILL)s
//     itself at the kill event — no destructors, no stream flush, a
//     genuine crash. The parent checks the child died by SIGKILL.
//
// Usage: mlfs_crashtest [--scheduler NAME] [--trials N] [--seed S]
//                       [--stride N] [--sigkill] [--dir D] [--list]
//                       [--stream-jobs N] [--fsync every|group|off]
//
// Exit codes: 0 = every trial byte-identical, 1 = a trial failed or the
// run errored, 2 = usage error.
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "exp/durable.hpp"
#include "exp/registry.hpp"
#include "exp/runner.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace mlfs;

struct Options {
  std::string scheduler = "MLFS";
  int trials = 3;
  std::uint64_t seed = 7;
  std::uint64_t stride = 200;  ///< events between on-disk snapshots
  bool sigkill = false;
  std::string dir = "crashtest-snapshots";
  std::size_t stream_jobs = 4;  ///< trace jobs withheld and streamed in live
  FsyncPolicy fsync = FsyncPolicy::GroupCommit;

  // Internal child mode (spawned by --sigkill trials).
  bool child = false;
  std::uint64_t kill_at = 0;
};

void print_usage() {
  std::cout <<
      "mlfs_crashtest — kill a durable run at a random event index, recover it\n"
      "from snapshot + journal replay and demand a byte-identical result.\n\n"
      "  --scheduler NAME  scheduler under test (default MLFS); --list to enumerate\n"
      "  --trials N        kill points per invocation (default 3)\n"
      "  --seed S          seed for the kill-point draw (default 7)\n"
      "  --stride N        events between on-disk snapshots (default 200)\n"
      "  --sigkill         crash a real subprocess with SIGKILL instead of the\n"
      "                    in-process halt\n"
      "  --dir D           session directory (default ./crashtest-snapshots,\n"
      "                    wiped per trial)\n"
      "  --stream-jobs N   trace jobs withheld from the start set, streamed in\n"
      "                    live and journaled write-ahead (default 4; 0 = none)\n"
      "  --fsync P         journal fsync policy: every | group | off\n"
      "                    (default group)\n";
}

/// Fills `options` from argv. Returns false when main should exit with
/// `exit_code` instead: 0 after --help or --list, 2 on a usage error.
bool parse(int argc, char** argv, Options& options, int& exit_code) {
  exit_code = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      exit_code = 0;
      return false;
    } else if (arg == "--list") {
      for (const auto& name : exp::registered_scheduler_names()) std::cout << name << "\n";
      exit_code = 0;
      return false;
    } else if (arg == "--scheduler") {
      const char* v = next("--scheduler");
      if (!v) return false;
      options.scheduler = v;
    } else if (arg == "--trials") {
      const char* v = next("--trials");
      if (!v) return false;
      options.trials = std::stoi(v);
    } else if (arg == "--seed") {
      const char* v = next("--seed");
      if (!v) return false;
      options.seed = std::stoull(v);
    } else if (arg == "--stride") {
      const char* v = next("--stride");
      if (!v) return false;
      options.stride = std::stoull(v);
    } else if (arg == "--sigkill") {
      options.sigkill = true;
    } else if (arg == "--dir") {
      const char* v = next("--dir");
      if (!v) return false;
      options.dir = v;
    } else if (arg == "--stream-jobs") {
      const char* v = next("--stream-jobs");
      if (!v) return false;
      options.stream_jobs = std::stoul(v);
    } else if (arg == "--fsync") {
      const char* v = next("--fsync");
      if (!v) return false;
      const auto policy = parse_fsync_policy(v);
      if (!policy) {
        std::cerr << "--fsync takes every | group | off\n";
        return false;
      }
      options.fsync = *policy;
    } else if (arg == "--child") {
      options.child = true;
    } else if (arg == "--kill-at") {
      const char* v = next("--kill-at");
      if (!v) return false;
      options.kill_at = std::stoull(v);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return false;
    }
  }
  if (options.stride == 0) {
    std::cerr << "--stride must be positive\n";
    return false;
  }
  if (options.trials < 1) {
    std::cerr << "--trials must be at least 1\n";
    return false;
  }
  return true;
}

/// The scenario every trial runs: small cluster, server faults + task kills,
/// full recovery policies, invariant auditor at stride 1 — mirrors the
/// restore-determinism test so the CLI exercises the same acceptance gate.
exp::RunRequest crash_request(const Options& options) {
  exp::RunRequest r;
  r.label = "crashtest-" + options.scheduler;
  r.cluster.server_count = 4;
  r.cluster.gpus_per_server = 4;
  r.cluster.servers_per_rack = 2;
  r.cluster.slow_server_fraction = 0.25;
  r.engine.seed = 31;
  r.engine.max_sim_time = hours(72.0);
  r.engine.straggler_probability = 0.01;
  r.engine.straggler_replicas = 1;
  r.engine.fault.server_mtbf_hours = 24.0;
  r.engine.fault.server_mttr_hours = 0.5;
  r.engine.fault.task_kill_probability = 0.002;
  r.engine.recovery.enabled = true;
  r.engine.recovery.quarantine_enabled = true;
  r.engine.recovery.retry_backoff_enabled = true;
  r.engine.audit.enabled = true;
  r.engine.audit.stride = 1;
  r.trace.num_jobs = 20;
  r.trace.duration_hours = 2.0;
  r.trace.seed = 77;
  r.trace.max_gpu_request = 8;
  r.scheduler = options.scheduler;
  r.mlfs_config.rl.warmup_samples = 100;
  return r;
}

exp::DurableConfig durable_config(const Options& options) {
  exp::DurableConfig config;
  config.dir = options.dir;
  config.snapshot_stride = options.stride;
  config.fsync = options.fsync;
  return config;
}

/// Child body for --sigkill: run the durable session up to the kill event,
/// then die by a real SIGKILL. The journal sink is unbuffered (one
/// write(2) per record), so the on-disk state is exactly a crash at that
/// event index — no destructors run, nothing left to flush.
int run_child(const Options& options) {
  exp::RunRequest request = crash_request(options);
  const auto script = exp::split_streamed_tail(request, options.stream_jobs);
  exp::DurableConfig config = durable_config(options);
  config.halt_at_event = options.kill_at;
  const exp::DurableResult result = exp::run_durable(request, script, config);
  if (result.halted) raise(SIGKILL);
  std::cerr << "child completed before kill_at=" << options.kill_at << "\n";
  return 3;
}

/// One trial: crash a durable run at `kill_at` (forked SIGKILL or
/// in-process halt), recover in a second session via snapshot + journal
/// replay, and demand byte-identity with the never-crashed reference.
bool run_trial(const Options& options, const std::string& self_exe, std::uint64_t kill_at,
               const exp::RunRequest& request,
               const std::vector<exp::ScriptedArrivalSource::Entry>& script,
               const RunMetrics& reference) {
  const std::filesystem::path dir = options.dir;
  std::filesystem::remove_all(dir);

  if (options.sigkill) {
    const pid_t pid = fork();
    if (pid < 0) throw ContractViolation("fork failed");
    if (pid == 0) {
      execl(self_exe.c_str(), self_exe.c_str(), "--child", "--kill-at",
            std::to_string(kill_at).c_str(), "--scheduler", options.scheduler.c_str(),
            "--stride", std::to_string(options.stride).c_str(), "--stream-jobs",
            std::to_string(options.stream_jobs).c_str(), "--fsync",
            fsync_policy_name(options.fsync), "--dir", dir.string().c_str(),
            static_cast<char*>(nullptr));
      _exit(127);  // exec failed
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid) throw ContractViolation("waitpid failed");
    if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
      std::cerr << "  child did not die by SIGKILL (status=" << status << ")\n";
      return false;
    }
  } else {
    exp::DurableConfig crashed = durable_config(options);
    crashed.halt_at_event = kill_at;
    if (!exp::run_durable(request, script, crashed).halted) {
      std::cerr << "  durable run completed before kill_at=" << kill_at << "\n";
      return false;
    }
  }

  const exp::DurableResult recovered = exp::run_durable(request, script, durable_config(options));
  std::filesystem::remove_all(dir);
  if (!recovered.recovered) {
    std::cerr << "  recovery did not resume from a snapshot\n";
    return false;
  }
  std::cerr << "  killed at event " << kill_at << ", resumed from snapshot at event "
            << recovered.resume_event << ", replayed " << recovered.records_replayed
            << " journaled arrivals" << (recovered.torn_tail_dropped ? " (torn tail dropped)" : "")
            << "\n";
  const bool ok = deterministic_equal(reference, recovered.metrics) &&
                  reference.event_stream_hash == recovered.metrics.event_stream_hash;
  if (!ok) {
    std::cerr << "  ZERO-LOSS MISMATCH\n    reference: hash=" << std::hex
              << reference.event_stream_hash << std::dec << " " << reference.summary()
              << "\n    recovered: hash=" << std::hex << recovered.metrics.event_stream_hash
              << std::dec << " " << recovered.metrics.summary() << "\n";
  }
  return ok;
}

std::string self_exe_path(const char* argv0) {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return std::string(buf);
  }
  return std::string(argv0);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    int exit_code = 0;
    if (!parse(argc, argv, options, exit_code)) return exit_code;
    if (options.child) return run_child(options);

    // The reference streams the withheld jobs live, with no journal.
    exp::RunRequest request = crash_request(options);
    const auto script = exp::split_streamed_tail(request, options.stream_jobs);
    const RunMetrics reference = exp::run_streaming(request, script);
    const std::uint64_t total_events = reference.events_processed;
    if (total_events <= 1) throw ContractViolation("reference run dispatched no events");
    std::cerr << options.scheduler << ": reference " << total_events << " events ("
              << reference.jobs_injected << " streamed), hash=0x" << std::hex
              << reference.event_stream_hash << std::dec << "\n";

    const std::string self_exe = self_exe_path(argv[0]);
    Rng rng(options.seed);
    int failures = 0;
    for (int trial = 0; trial < options.trials; ++trial) {
      // Kill somewhere strictly inside the run so the resume does real work.
      const std::uint64_t kill_at = 1 + rng.next_u64() % (total_events - 1);
      std::cerr << "trial " << trial << (options.sigkill ? " (sigkill):\n" : " (in-process):\n");
      const bool ok = run_trial(options, self_exe, kill_at, request, script, reference);
      std::cout << "trial " << trial << " kill_at=" << kill_at << " "
                << (ok ? "PASS" : "FAIL") << "\n";
      if (!ok) ++failures;
    }
    if (failures > 0) {
      std::cout << failures << "/" << options.trials << " trials FAILED\n";
      return 1;
    }
    std::cout << "all " << options.trials << " trials byte-identical after recovery\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
