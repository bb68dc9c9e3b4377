// The benchmark's four workloads. Each is a fully specified RunRequest
// whose job specs are generated here from the benchmark seed, so the
// simulator sees only generated inputs (see README.md for why each
// workload exists and which layers it loads).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/durable.hpp"

namespace mlfsbench {

struct Workload {
  std::string name;
  /// Cluster, engine, trace and scheduler settings; `workload` is unset.
  mlfs::exp::RunRequest request;
  /// Offered load the arrival window is scaled to: the trace's ideal
  /// GPU-seconds over (fleet GPUs x arrival window).
  double offered_load = 0.0;
  /// Jobs withheld from the start set and streamed into the live engine
  /// (0 = pure trace replay).
  std::size_t stream_jobs = 0;
  /// Independent traces per run. Host time depends on the trace, so a run
  /// averages over several to keep seed-to-seed spread small.
  int instances = 1;
};

/// Generated inputs of one workload instance.
struct Inputs {
  mlfs::exp::RunRequest request;  ///< `workload` holds the start set
  std::vector<mlfs::exp::ScriptedArrivalSource::Entry> script;  ///< streamed tail
};

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Generates instance `instance` of the workload: draws the trace, scales
/// its arrival window to the offered load and splits off the streamed tail.
Inputs generate_inputs(const Workload& workload, int instance);

}  // namespace mlfsbench
