// Restore-equivalence harness: the executable definition of the snapshot
// contract. For a RunRequest and an event index, it runs the request
// uninterrupted, then re-runs it stepping to that index, snapshots, restores
// the snapshot into a third, freshly built engine, runs that to completion,
// and demands the interrupted+restored run be indistinguishable from the
// uninterrupted one — byte-identical event-stream hash and all deterministic
// RunMetrics fields (RunMetrics::deterministic_equal). Used by the fuzz
// dimension (exp/fuzz.cpp) and the restore-determinism tests; on-disk
// crashes go through durable sessions (exp/durable.hpp) instead.
#pragma once

#include <cstdint>
#include <string>

#include "exp/runner.hpp"

namespace mlfs::exp {

struct RestoreCheckResult {
  bool equivalent = false;
  std::uint64_t total_events = 0;     ///< events of the uninterrupted run
  std::uint64_t snapshot_event = 0;   ///< effective (wrapped) snapshot index
  RunMetrics reference;               ///< uninterrupted run
  RunMetrics restored;                ///< snapshot → restore → completion
  std::string detail;                 ///< human-readable mismatch summary ("" when equivalent)
};

/// Runs the three-engine snapshot/restore equivalence check. The snapshot
/// is taken after `snapshot_event % max(1, total_events)` events, so any
/// u64 (e.g. a fuzzer draw) names a valid cut point deterministically.
RestoreCheckResult check_restore_equivalence(const RunRequest& request,
                                             std::uint64_t snapshot_event);

}  // namespace mlfs::exp
