#include "exp/durable.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/expect.hpp"
#include "workload/trace.hpp"

namespace mlfs::exp {

namespace fs = std::filesystem;

namespace {

std::string snap_path(const std::string& dir, std::uint64_t event) {
  return dir + "/snap-" + std::to_string(event) + ".bin";
}

std::string journal_path(const std::string& dir, std::uint64_t event) {
  return dir + "/journal-" + std::to_string(event) + ".wal";
}

/// Event index encoded in "<prefix><digits><suffix>", or nullopt.
std::optional<std::uint64_t> parse_keyed_name(const std::string& name, const char* prefix,
                                              const char* suffix) {
  const std::size_t plen = std::string(prefix).size();
  const std::size_t slen = std::string(suffix).size();
  if (name.size() <= plen + slen || name.rfind(prefix, 0) != 0 ||
      name.compare(name.size() - slen, slen, suffix) != 0) {
    return std::nullopt;
  }
  const std::string digits = name.substr(plen, name.size() - plen - slen);
  if (digits.empty() || digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  return std::stoull(digits);
}

/// Snapshot event indices present in `dir`, ascending.
std::vector<std::uint64_t> list_snapshots(const std::string& dir) {
  std::vector<std::uint64_t> events;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const auto event = parse_keyed_name(entry.path().filename().string(), "snap-", ".bin");
    if (event) events.push_back(*event);
  }
  std::sort(events.begin(), events.end());
  return events;
}

/// Removes debris a crash mid-checkpoint can leave behind: half-written
/// `.tmp` files and journal segments newer than the newest surviving
/// snapshot (their snapshot never got renamed into place, so nothing can
/// ever replay them).
void remove_stray_files(const std::string& dir, std::uint64_t newest_snapshot) {
  std::error_code ec;
  std::vector<fs::path> stray;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      stray.push_back(entry.path());
      continue;
    }
    const auto event = parse_keyed_name(name, "journal-", ".wal");
    if (event && *event > newest_snapshot) stray.push_back(entry.path());
  }
  for (const auto& path : stray) fs::remove(path, ec);
}

/// Keeps the newest `keep` snapshots; drops older snapshots together with
/// their journal segments (a pruned snapshot's segment can never be the
/// recovery base again — recovery always picks the newest).
void prune_snapshots(const std::string& dir, int keep) {
  const std::vector<std::uint64_t> events = list_snapshots(dir);
  const auto retain = static_cast<std::size_t>(std::max(1, keep));
  if (events.size() <= retain) return;
  std::error_code ec;
  for (std::size_t i = 0; i + retain < events.size(); ++i) {
    fs::remove(snap_path(dir, events[i]), ec);
    fs::remove(journal_path(dir, events[i]), ec);
  }
}

/// One step of the shared streaming drive loop. Returns false when the run
/// is truly over: step() said so, and either no arrival remains or neither
/// an event nor an injection happened this round — the queue holds only
/// beyond-horizon events and no further arrival can become due, so the
/// remaining script is horizon-censored exactly like the reference run.
bool streaming_step(SimEngine& engine, ScriptedArrivalSource& source) {
  const std::uint64_t before_events = engine.events_processed();
  const std::size_t before_injected = engine.injected_specs().size();
  if (engine.step()) return true;
  if (!source.pending()) return false;
  return engine.events_processed() != before_events ||
         engine.injected_specs().size() != before_injected;
}

/// Writes engine.save_snapshot() to `<path>.tmp`, checks the flush, then
/// renames it to `path`: `path` only ever names a complete, checksummed
/// file, and a crash mid-write leaves only the `.tmp` behind, which
/// remove_stray_files() deletes. Nothing is fsynced, so this holds across
/// a process crash, not a power loss (DESIGN.md §6d).
void write_snapshot_atomic(const SimEngine& engine, const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw ContractViolation("cannot open snapshot file " + tmp);
    engine.save_snapshot(os);
    os.flush();
    if (!os) throw ContractViolation("snapshot flush failed for " + tmp);
  }
  fs::rename(tmp, path);
}

}  // namespace

bool ScriptedArrivalSource::pop_due(SimTime now, std::uint64_t event_index, bool queue_empty,
                                    StreamedArrival& out) {
  if (next_ >= entries_.size()) return false;
  const Entry& entry = entries_[next_];
  const bool due = entry.at_event ? event_index >= *entry.at_event
                                  : (entry.spec.arrival <= now || queue_empty);
  if (!due) return false;
  out.stream_seq = entry.stream_seq;
  out.spec = entry.spec;
  ++next_;
  return true;
}

void ScriptedArrivalSource::on_injected(const JobSpec& spec, std::uint64_t stream_seq,
                                        std::uint64_t event_index) {
  if (hook_) hook_(spec, stream_seq, event_index);
}

std::vector<ScriptedArrivalSource::Entry> make_script(const std::vector<JobSpec>& specs) {
  std::vector<ScriptedArrivalSource::Entry> script;
  script.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    script.push_back({static_cast<std::uint64_t>(i), specs[i], std::nullopt});
  }
  return script;
}

std::vector<ScriptedArrivalSource::Entry> split_streamed_tail(RunRequest& request,
                                                              std::size_t stream_jobs) {
  if (stream_jobs == 0) return {};
  std::vector<JobSpec> specs =
      request.workload ? *request.workload : PhillyTraceGenerator(request.trace).generate();
  std::stable_sort(specs.begin(), specs.end(),
                   [](const JobSpec& a, const JobSpec& b) { return a.arrival < b.arrival; });
  if (stream_jobs >= specs.size()) {
    throw ContractViolation("split_streamed_tail: stream_jobs " + std::to_string(stream_jobs) +
                            " must leave at least one of " + std::to_string(specs.size()) +
                            " jobs in the start set");
  }
  std::vector<JobSpec> streamed(specs.end() - static_cast<std::ptrdiff_t>(stream_jobs),
                                specs.end());
  specs.resize(specs.size() - stream_jobs);
  // The cluster requires dense job ids; streamed jobs are re-id'd by the
  // engine on injection, so only the start set is renumbered.
  for (std::size_t i = 0; i < specs.size(); ++i) specs[i].id = static_cast<JobId>(i);
  request.workload = std::make_shared<const std::vector<JobSpec>>(std::move(specs));
  return make_script(streamed);
}

DurableResult run_durable(const RunRequest& request,
                          const std::vector<ScriptedArrivalSource::Entry>& script,
                          const DurableConfig& config) {
  MLFS_EXPECT(!config.dir.empty());
  fs::create_directories(config.dir);

  DurableResult result;
  EngineBundle bundle = build_engine(request);
  SimEngine& engine = *bundle.engine;
  const std::uint64_t fingerprint = engine.config_fingerprint();

  std::vector<ScriptedArrivalSource::Entry> entries;
  std::unique_ptr<JournalWriter> writer;
  std::uint64_t journaled_below = 0;  ///< stream_seqs < this are already on disk

  const std::vector<std::uint64_t> snapshots = list_snapshots(config.dir);
  if (!snapshots.empty()) {
    // ---- recovery: newest snapshot + its journal segment ----
    const std::uint64_t base = snapshots.back();
    result.recovered = true;
    result.resume_event = base;
    remove_stray_files(config.dir, base);
    {
      std::ifstream is(snap_path(config.dir, base), std::ios::binary);
      if (!is) throw ContractViolation("cannot open snapshot " + snap_path(config.dir, base));
      engine.restore_snapshot(is);
    }
    MLFS_EXPECT(engine.events_processed() == base);

    JournalReplay replay = read_journal_file(journal_path(config.dir, base), fingerprint);
    MLFS_EXPECT(replay.base_event == base);
    result.torn_tail_dropped = replay.torn_tail;

    // Records we keep appending after: everything validated except a
    // clean-shutdown marker (re-running a finished session is legal; the
    // marker is dropped so new records don't land behind it).
    std::vector<JournalRecord> keep;
    for (const JournalRecord& record : replay.records) {
      if (record.type != JournalRecordType::CleanShutdown) keep.push_back(record);
    }
    const std::uint64_t continue_seq = replay.first_seq + keep.size();

    if (replay.torn_tail || replay.clean_shutdown) {
      // Atomic truncation: rewrite the validated prefix (header + records,
      // sequence numbers preserved verbatim) into a tmp segment and rename
      // it over the damaged file — a crash mid-rewrite leaves the original.
      const std::string path = journal_path(config.dir, base);
      const std::string tmp = path + ".tmp";
      {
        JournalWriter rewrite(std::make_unique<FileJournalSink>(tmp, /*truncate=*/true),
                              fingerprint, base, replay.first_seq, FsyncPolicy::Off,
                              config.group_records);
        for (const JournalRecord& record : keep) rewrite.append_record(record);
        rewrite.sync();
      }
      fs::rename(tmp, path);
    }

    writer = std::make_unique<JournalWriter>(
        std::make_unique<FileJournalSink>(journal_path(config.dir, base)), fingerprint, base,
        continue_seq, config.fsync, config.group_records, /*write_header=*/false);

    // Arrivals already inside the snapshot occupy stream_seqs
    // [0, injected_before); the segment's records continue from there and
    // are re-injected at their exact recorded event indices. The rest of
    // the script streams live, by the time rule.
    std::uint64_t expected_seq = engine.injected_specs().size();
    for (const JournalRecord& record : keep) {
      if (record.type != JournalRecordType::InjectArrival) continue;
      MLFS_EXPECT(record.stream_seq == expected_seq);
      entries.push_back({record.stream_seq, record.spec, record.event_index});
      ++expected_seq;
    }
    result.records_replayed = entries.size();
    journaled_below = expected_seq;
    for (const ScriptedArrivalSource::Entry& entry : script) {
      if (entry.stream_seq >= journaled_below) entries.push_back(entry);
    }
  } else {
    // ---- fresh session: journal-0.wal first, snap-0.bin second, so the
    // "snapshot exists => its journal segment exists" invariant holds from
    // the very first write.
    entries = script;
    writer = std::make_unique<JournalWriter>(
        std::make_unique<FileJournalSink>(journal_path(config.dir, 0), /*truncate=*/true),
        fingerprint, /*base_event=*/0, /*first_seq=*/0, config.fsync, config.group_records);
    write_snapshot_atomic(engine, snap_path(config.dir, 0));
    ++result.snapshots_written;
  }

  ScriptedArrivalSource source(
      std::move(entries),
      [&writer, journaled_below](const JobSpec& spec, std::uint64_t stream_seq,
                                 std::uint64_t event_index) {
        // Replayed records are already on disk under these sequence
        // numbers; journaling them again would fork the sequence.
        if (stream_seq < journaled_below) return;
        writer->append_arrival(event_index, stream_seq, spec);
      });
  engine.set_arrival_source(&source);

  std::uint64_t last_snapshot = result.recovered ? result.resume_event : 0;
  for (;;) {
    if (config.halt_at_event && engine.events_processed() >= *config.halt_at_event) {
      // Simulated crash: no finalize, no shutdown marker, no flush beyond
      // what the unbuffered sink already wrote — byte-for-byte the state a
      // SIGKILL at this instant leaves on disk.
      result.halted = true;
      return result;
    }
    if (config.snapshot_stride > 0 &&
        engine.events_processed() >= last_snapshot + config.snapshot_stride) {
      const std::uint64_t event = engine.events_processed();
      // Crash-ordered rotation: (1) the next segment exists before
      // anything references it; (2) the barrier lands in the old segment
      // and is forced to disk; (3) the snapshot is renamed into place
      // last. A crash between any two steps leaves a recoverable state —
      // at worst stray files remove_stray_files() deletes.
      auto next_writer = std::make_unique<JournalWriter>(
          std::make_unique<FileJournalSink>(journal_path(config.dir, event), /*truncate=*/true),
          fingerprint, event, writer->next_seq() + 1, config.fsync, config.group_records);
      writer->append_barrier(event);
      writer->sync();
      write_snapshot_atomic(engine, snap_path(config.dir, event));
      writer = std::move(next_writer);
      last_snapshot = event;
      ++result.snapshots_written;
      if (config.snapshot_keep > 0) prune_snapshots(config.dir, config.snapshot_keep);
    }
    if (!streaming_step(engine, source)) break;
  }

  result.metrics = engine.finalize();
  writer->append_clean_shutdown(engine.events_processed());
  writer->sync();
  return result;
}

RunMetrics run_streaming(const RunRequest& request,
                         const std::vector<ScriptedArrivalSource::Entry>& script) {
  EngineBundle bundle = build_engine(request);
  ScriptedArrivalSource source(script);
  bundle.engine->set_arrival_source(&source);
  while (streaming_step(*bundle.engine, source)) {
  }
  return bundle.engine->finalize();
}

CrashCheckResult check_crash_equivalence(const RunRequest& request,
                                         const std::vector<ScriptedArrivalSource::Entry>& script,
                                         std::uint64_t crash_event,
                                         const DurableConfig& config) {
  CrashCheckResult result;
  result.reference = run_streaming(request, script);
  result.total_events = result.reference.events_processed;
  result.crash_event = crash_event % std::max<std::uint64_t>(1, result.total_events);

  // The check owns its scratch directory end to end.
  fs::remove_all(config.dir);

  DurableConfig crashed = config;
  crashed.halt_at_event = result.crash_event;
  const DurableResult dead = run_durable(request, script, crashed);
  MLFS_EXPECT(dead.halted);

  DurableConfig resumed = config;
  resumed.halt_at_event.reset();
  const DurableResult alive = run_durable(request, script, resumed);
  MLFS_EXPECT(alive.recovered);
  result.recovered = alive.metrics;
  result.torn_tail_dropped = alive.torn_tail_dropped;

  result.equivalent =
      deterministic_equal(result.reference, result.recovered) &&
      result.reference.event_stream_hash == result.recovered.event_stream_hash;
  if (!result.equivalent) {
    std::ostringstream detail;
    detail << "recovered run diverged from never-crashed run at crash_event="
           << result.crash_event << "/" << result.total_events << " (resumed from snapshot @"
           << alive.resume_event << ", " << alive.records_replayed
           << " journal records replayed): hash " << result.reference.event_stream_hash
           << " vs " << result.recovered.event_stream_hash << ", events "
           << result.reference.events_processed << " vs " << result.recovered.events_processed
           << "; reference [" << result.reference.summary() << "] recovered ["
           << result.recovered.summary() << "]";
    result.detail = detail.str();
  }
  fs::remove_all(config.dir);
  return result;
}

}  // namespace mlfs::exp
