// Durable write-ahead journal of external inputs (see DESIGN.md §6d,
// "Durability & crash recovery"). The engine itself stays a pure function
// of (config, seed); everything injected from outside — streamed job
// arrivals, snapshot barriers, the clean-shutdown marker — is appended to
// this log *before* it is applied, so crash recovery is
//
//   restore = load_snapshot(K) + replay journal records with event > K
//
// and is byte-identical to a run that never crashed.
//
// File layout (little-endian throughout):
//
//   magic    8 bytes  "MLFSJRNL"
//   version  u32      kJournalVersion
//   fprint   u64      config fingerprint of the engine that wrote it
//   base     u64      event index of the snapshot this segment follows
//   firstseq u64      sequence number of the segment's first record
//   records  ×        [ u32 len | u32 hcrc | payload | u64 crc ]
//
// where `hcrc` is a checksum over the 4 length bytes (so a corrupted
// length field cannot silently swallow valid later records), `crc` is
// FNV-1a over the payload, and the payload is
//
//   seq u64 | type u8 | event_index u64 | type-specific body
//
// Recovery semantics mirror production WALs: the writer appends each
// frame with a single unbuffered write, so a crash leaves a clean prefix
// of the file. The reader validates records front to back; an incomplete
// or checksum-failing *final* record is a torn tail and is dropped (the
// input was never acknowledged), while any defect before the final record
// — bit flips, sequence gaps, records after a clean-shutdown marker — is
// real corruption and throws a structured JournalError. The container
// hardening mirrors sim/snapshot.hpp: magic/version/fingerprint header,
// structured (section, offset) errors, and no partial mutation — the
// whole log is validated before a single record is replayed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/binio.hpp"
#include "common/expect.hpp"
#include "workload/job.hpp"

namespace mlfs {

inline constexpr char kJournalMagic[8] = {'M', 'L', 'F', 'S', 'J', 'R', 'N', 'L'};
inline constexpr std::uint32_t kJournalVersion = 1;
/// Header size in bytes (magic + version + fingerprint + base + firstseq).
inline constexpr std::uint64_t kJournalHeaderBytes = 8 + 4 + 8 + 8 + 8;
/// No record in this codebase comes close; a corrupt length field must not
/// drive a multi-gigabyte allocation (same bound rationale as BinReader).
inline constexpr std::uint32_t kMaxJournalRecordBytes = 1u << 20;

/// Structured rejection of a journal file. Subclasses ContractViolation so
/// existing catch sites handle it; carries the failing section ("header",
/// "record", "io") and the byte offset at which validation failed.
class JournalError : public ContractViolation {
 public:
  JournalError(std::string section, std::uint64_t offset, const std::string& detail);

  const std::string& section() const { return section_; }
  std::uint64_t offset() const { return offset_; }

 private:
  std::string section_;
  std::uint64_t offset_;
};

enum class JournalRecordType : std::uint8_t {
  /// A streamed job arrival injected into the live engine. Body:
  /// u64 stream_seq + the registered JobSpec (id/arrival as assigned).
  InjectArrival = 1,
  /// A snapshot was written at `snapshot_event` == event_index; the next
  /// segment is keyed to it. Body: empty.
  SnapshotBarrier = 2,
  /// The run finished and finalized; nothing after this is legal. Body:
  /// empty.
  CleanShutdown = 3,
};

struct JournalRecord {
  std::uint64_t seq = 0;  ///< global monotone sequence, +1 per record
  JournalRecordType type = JournalRecordType::InjectArrival;
  /// SimEngine::events_processed() at the instant the input applied.
  std::uint64_t event_index = 0;
  // InjectArrival only:
  std::uint64_t stream_seq = 0;
  JobSpec spec;
};

/// Canonical JobSpec serialization, shared by the journal's arrival
/// records, the snapshot's "injected" section, and the config fingerprint
/// (the field order is the fingerprint's historical order — do not reorder).
void write_job_spec(io::BinWriter& w, const JobSpec& spec);
JobSpec read_job_spec(io::BinReader& r);

/// Byte sink the journal writer appends through. Implementations must
/// surface short writes / disk-full as JournalError("io", offset, detail)
/// with errno context — a swallowed write error would break the zero-loss
/// contract silently.
class JournalSink {
 public:
  virtual ~JournalSink() = default;
  virtual void append(const char* data, std::size_t n) = 0;
  virtual void sync() = 0;
};

/// POSIX append-only file sink. Unbuffered (every append is one write(2)
/// call), so a SIGKILL loses at most the in-flight frame and always leaves
/// a clean prefix on disk; sync() is a real fsync for power-loss
/// durability.
class FileJournalSink : public JournalSink {
 public:
  /// Opens (creating if needed) `path` for appending; `truncate` discards
  /// existing content (segment rotation / atomic rewrite).
  explicit FileJournalSink(const std::string& path, bool truncate = false);
  ~FileJournalSink() override;
  FileJournalSink(const FileJournalSink&) = delete;
  FileJournalSink& operator=(const FileJournalSink&) = delete;

  void append(const char* data, std::size_t n) override;
  void sync() override;

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t bytes_written_ = 0;
};

/// In-memory sink for tests and staging. `fail_after_bytes` makes it an
/// injectable failing sink: once cumulative output would cross the budget
/// it keeps only the prefix that fits and throws JournalError — the
/// disk-full / short-write path the writer hardening is tested against.
class MemoryJournalSink : public JournalSink {
 public:
  explicit MemoryJournalSink(std::size_t fail_after_bytes = static_cast<std::size_t>(-1))
      : budget_(fail_after_bytes) {}

  void append(const char* data, std::size_t n) override;
  void sync() override { ++syncs_; }

  const std::string& bytes() const { return bytes_; }
  std::size_t sync_count() const { return syncs_; }

 private:
  std::string bytes_;
  std::size_t budget_;
  std::size_t syncs_ = 0;
};

/// When the journal is forced to stable storage. With the unbuffered file
/// sink every policy survives SIGKILL loss-free (the page cache outlives
/// the process); the policy only matters for power loss / host crashes.
enum class FsyncPolicy {
  EveryRecord,  ///< fsync after every append — durable, slowest
  GroupCommit,  ///< fsync every `group_records` appends + at barriers
  Off,          ///< never fsync (process-crash durability only)
};

/// The policy's command-line name: "every", "group" or "off".
const char* fsync_policy_name(FsyncPolicy policy);
/// Inverse of fsync_policy_name; nullopt for any other string.
std::optional<FsyncPolicy> parse_fsync_policy(std::string_view name);

/// Appends length-framed, CRC'd, monotonically sequenced records through a
/// sink. Writes the segment header on construction (unless resuming into a
/// rewritten segment).
class JournalWriter {
 public:
  JournalWriter(std::unique_ptr<JournalSink> sink, std::uint64_t config_fingerprint,
                std::uint64_t base_event, std::uint64_t first_seq,
                FsyncPolicy policy = FsyncPolicy::GroupCommit, int group_records = 32,
                bool write_header = true);

  /// Each append returns the record's sequence number.
  std::uint64_t append_arrival(std::uint64_t event_index, std::uint64_t stream_seq,
                               const JobSpec& spec);
  std::uint64_t append_barrier(std::uint64_t snapshot_event);
  std::uint64_t append_clean_shutdown(std::uint64_t event_index);
  /// Re-appends a validated record verbatim (recovery rewrite); the
  /// record's seq must equal next_seq().
  std::uint64_t append_record(const JournalRecord& record);

  /// Forces buffered records to stable storage regardless of policy.
  void sync();

  std::uint64_t next_seq() const { return next_seq_; }
  std::uint64_t base_event() const { return base_event_; }

 private:
  std::uint64_t append_frame(const JournalRecord& record, bool force_sync);

  std::unique_ptr<JournalSink> sink_;
  std::uint64_t base_event_;
  std::uint64_t next_seq_;
  FsyncPolicy policy_;
  int group_records_;
  int since_sync_ = 0;
  std::uint64_t bytes_appended_ = 0;
};

/// Everything recovery learns from one validated journal segment.
struct JournalReplay {
  std::uint64_t fingerprint = 0;
  std::uint64_t base_event = 0;   ///< snapshot event index this segment follows
  std::uint64_t first_seq = 0;
  std::vector<JournalRecord> records;  ///< validated, torn tail excluded
  bool clean_shutdown = false;    ///< log ends with a CleanShutdown marker
  bool torn_tail = false;         ///< the final record was torn/corrupt and dropped
  std::uint64_t torn_offset = 0;  ///< byte offset of the dropped tail record
  std::uint64_t next_seq = 0;     ///< sequence to continue appending with
};

/// Validates the whole log front to back before returning — header (magic,
/// version, fingerprint), per-record framing, checksums, sequence
/// continuity, shutdown-marker placement. Throws JournalError on any
/// defect except a torn/corrupt *tail* record, which is dropped and
/// reported via `torn_tail`/`torn_offset`.
JournalReplay read_journal(std::istream& is, std::uint64_t expected_fingerprint);
JournalReplay read_journal_file(const std::string& path, std::uint64_t expected_fingerprint);

}  // namespace mlfs
