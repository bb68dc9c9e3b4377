// Durable streaming sessions (see DESIGN.md §6d): the orchestration layer
// that ties the engine's streaming seam (SimEngine::inject_job /
// ArrivalSource) to the write-ahead journal (sim/journal.hpp) and the
// snapshot container, giving zero-loss crash recovery:
//
//   restore = load_snapshot(K) + replay journal records with event > K
//
// A DurableSession owns one journal directory. A fresh run immediately
// writes `snap-0.bin` + `journal-0.wal` (so a snapshot always exists), then
// checkpoints every `snapshot_stride` events with crash-ordered rotation:
// the new journal segment is created *first*, a SnapshotBarrier is appended
// to the old segment and synced, and the snapshot is renamed into place
// *last* — so at every instant, "snapshot exists ⇒ its journal segment
// exists", and a crash mid-checkpoint at worst leaves stray files the next
// recovery deletes. Recovery picks the newest snapshot, validates its
// segment front to back (truncating a torn tail by atomic rewrite), and
// replays journaled arrivals at their exact recorded event indices, which
// makes the resumed run byte-identical (event_stream_hash and
// deterministic_equal) to one that never crashed.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "sim/engine.hpp"
#include "sim/journal.hpp"

namespace mlfs::exp {

/// Pull-model arrival script. Each entry is due either by simulated time
/// (`spec.arrival <= now`, or immediately once the event queue drains —
/// live streaming) or, when `at_event` is set, at an exact event index
/// (journal replay: re-inject precisely where the crashed run did).
class ScriptedArrivalSource : public ArrivalSource {
 public:
  struct Entry {
    std::uint64_t stream_seq = 0;
    JobSpec spec;
    std::optional<std::uint64_t> at_event;  ///< replay rule when set
  };
  /// Called after the engine registered an arrival — the journaling seam.
  using InjectHook =
      std::function<void(const JobSpec& spec, std::uint64_t stream_seq,
                         std::uint64_t event_index)>;

  explicit ScriptedArrivalSource(std::vector<Entry> entries, InjectHook hook = nullptr)
      : entries_(std::move(entries)), hook_(std::move(hook)) {}

  bool pending() const override { return next_ < entries_.size(); }
  bool pop_due(SimTime now, std::uint64_t event_index, bool queue_empty,
               StreamedArrival& out) override;
  void on_injected(const JobSpec& spec, std::uint64_t stream_seq,
                   std::uint64_t event_index) override;

 private:
  std::vector<Entry> entries_;
  InjectHook hook_;
  std::size_t next_ = 0;
};

/// Turns a plain spec list into a live-streaming script (stream_seq =
/// position, time-rule entries).
std::vector<ScriptedArrivalSource::Entry> make_script(const std::vector<JobSpec>& specs);

/// Withholds the last `stream_jobs` arrivals of the request's workload
/// (materializing it from the trace config if needed) and returns them as
/// a live-streaming script; `request.workload` is rewritten to the densely
/// re-id'd start set. Deterministic, so two callers with the same request
/// and count rebuild the identical split (e.g. a crash-test parent and its
/// forked child). Throws if the split would leave the start set empty.
std::vector<ScriptedArrivalSource::Entry> split_streamed_tail(RunRequest& request,
                                                              std::size_t stream_jobs);

struct DurableConfig {
  std::string dir;                     ///< journal directory (created if missing)
  std::uint64_t snapshot_stride = 0;   ///< checkpoint every N events (0 = only snap-0)
  int snapshot_keep = 0;               ///< prune to the newest K snapshots (0 = keep all)
  FsyncPolicy fsync = FsyncPolicy::GroupCommit;
  int group_records = 32;              ///< group-commit batch size
  /// Simulated crash: stop before processing this event index, skipping
  /// finalize and the clean-shutdown marker. Because the journal sink is
  /// unbuffered, the on-disk state is exactly what a SIGKILL at that
  /// instant leaves behind.
  std::optional<std::uint64_t> halt_at_event;
};

struct DurableResult {
  RunMetrics metrics;                 ///< finalized (unset when halted)
  bool halted = false;                ///< stopped at halt_at_event, no finalize
  bool recovered = false;             ///< resumed from an existing snapshot
  bool torn_tail_dropped = false;     ///< recovery truncated a torn tail record
  std::uint64_t resume_event = 0;     ///< snapshot event index resumed from
  std::size_t records_replayed = 0;   ///< journaled arrivals re-injected
  std::size_t snapshots_written = 0;  ///< checkpoints taken this session
};

/// One durable run (or resume) of `request` with `script` streamed in.
/// If `config.dir` holds a snapshot, the session recovers from it and
/// continues; otherwise it starts fresh. Every streamed arrival is
/// journaled before the next event is processed.
DurableResult run_durable(const RunRequest& request,
                          const std::vector<ScriptedArrivalSource::Entry>& script,
                          const DurableConfig& config);

/// Reference run: the same request + script streamed into a live engine
/// with no journal, no snapshots, run to completion. The zero-loss gate
/// compares a crashed-and-recovered run against this.
RunMetrics run_streaming(const RunRequest& request,
                         const std::vector<ScriptedArrivalSource::Entry>& script);

/// End-to-end zero-loss property check (fuzz/test/CI harness): run the
/// reference, crash a durable run at `crash_event` (mod total events),
/// recover in a second session, and require byte-identical results.
struct CrashCheckResult {
  RunMetrics reference;
  RunMetrics recovered;
  std::uint64_t crash_event = 0;   ///< actual (wrapped) crash index
  std::uint64_t total_events = 0;  ///< reference run length
  bool torn_tail_dropped = false;
  bool equivalent = false;
  std::string detail;              ///< divergence description when !equivalent
};

CrashCheckResult check_crash_equivalence(const RunRequest& request,
                                         const std::vector<ScriptedArrivalSource::Entry>& script,
                                         std::uint64_t crash_event, const DurableConfig& config);

}  // namespace mlfs::exp
