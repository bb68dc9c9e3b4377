// Snapshot container + per-subsystem round-trip tests (sim/snapshot.hpp,
// SimEngine::{save,restore}_snapshot).
//
// Positive direction: each stateful subsystem re-serializes to identical
// bytes after a save → restore-into-fresh-instance cycle (the strongest
// cheap equivalence: serialize(restore(serialize(x))) == serialize(x)), and
// a whole engine snapshot is idempotent mid-run.
//
// Negative direction: every corruption mode — truncation at any byte, any
// single-bit flip, bad magic, bad version, fingerprint mismatch, trailing
// garbage — is rejected up front with a structured SnapshotError naming the
// failing section and offset, and a failed restore leaves the target engine
// untouched (never a partial restore).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "exp/restore_check.hpp"
#include "exp/runner.hpp"
#include "rl/reinforce.hpp"
#include "sim/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/health.hpp"
#include "sim/journal.hpp"
#include "sim/snapshot.hpp"
#include "workload/model_zoo.hpp"
#include "workload/trace.hpp"

namespace mlfs {
namespace {

// ---------------------------------------------------------------- container

std::string write_sample(std::uint64_t fingerprint = 0xfeedu) {
  SnapshotWriter writer(fingerprint);
  auto& a = writer.section("alpha");
  a.u64(42);
  a.f64(2.5);
  auto& b = writer.section("beta");
  b.str("payload");
  std::ostringstream os(std::ios::binary);
  writer.write(os);
  return os.str();
}

std::string patch_checksum(std::string bytes) {
  const std::uint64_t sum = fnv1a(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((sum >> (8 * i)) & 0xff);
  }
  return bytes;
}

TEST(SnapshotContainer, RoundTripsSectionsVersionAndFingerprint) {
  const std::string bytes = write_sample(0xfeedu);
  std::istringstream is(bytes, std::ios::binary);
  SnapshotReader reader(is, 0xfeedu);
  EXPECT_EQ(reader.version(), kSnapshotVersion);
  EXPECT_EQ(reader.fingerprint(), 0xfeedu);
  ASSERT_TRUE(reader.has_section("alpha"));
  ASSERT_TRUE(reader.has_section("beta"));
  EXPECT_FALSE(reader.has_section("gamma"));

  auto alpha = reader.section("alpha");
  io::BinReader ra(alpha);
  EXPECT_EQ(ra.u64(), 42u);
  EXPECT_DOUBLE_EQ(ra.f64(), 2.5);
  auto beta = reader.section("beta");
  io::BinReader rb(beta);
  EXPECT_EQ(rb.str(), "payload");
}

TEST(SnapshotContainer, MissingSectionIsStructuredError) {
  const std::string bytes = write_sample();
  std::istringstream is(bytes, std::ios::binary);
  SnapshotReader reader(is, 0xfeedu);
  try {
    reader.section("gamma");
    FAIL() << "missing section accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "gamma");
    EXPECT_NE(std::string(e.what()).find("snapshot rejected"), std::string::npos);
  }
}

TEST(SnapshotContainer, TruncationAtEveryByteRejected) {
  const std::string bytes = write_sample();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::istringstream is(bytes.substr(0, len), std::ios::binary);
    EXPECT_THROW(SnapshotReader(is, 0xfeedu), SnapshotError) << "prefix length " << len;
  }
}

TEST(SnapshotContainer, AnySingleBitFlipRejected) {
  const std::string bytes = write_sample();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x20);
    std::istringstream is(corrupt, std::ios::binary);
    EXPECT_THROW(SnapshotReader(is, 0xfeedu), SnapshotError) << "flipped byte " << i;
  }
}

TEST(SnapshotContainer, ImplausibleSectionCountRejectedBeforeAllocating) {
  // A count no remaining bytes could hold (each section takes at least 12
  // bytes) must be a structured rejection, even under a valid checksum,
  // not a std::bad_alloc from sizing the section table.
  std::string bytes = write_sample();
  for (int i = 0; i < 4; ++i) bytes[20 + i] = static_cast<char>(0xff);
  bytes = patch_checksum(std::move(bytes));
  std::istringstream is(bytes, std::ios::binary);
  try {
    SnapshotReader reader(is, 0xfeedu);
    FAIL() << "implausible section count accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_EQ(e.offset(), 20u);
    EXPECT_NE(std::string(e.what()).find("section count"), std::string::npos);
  }
}

TEST(SnapshotContainer, CorruptLengthFieldsRunOutOfStreamBeforeAllocating) {
  // A length within BinReader's 2^32 plausibility cap but far beyond the
  // stream must fail as an underrun, not size a multi-gigabyte buffer.
  for (const bool as_string : {false, true}) {
    std::ostringstream os(std::ios::binary);
    {
      io::BinWriter w(os);
      w.u64(1ull << 32);
      w.f64(1.0);
    }
    std::istringstream is(os.str(), std::ios::binary);
    io::BinReader r(is);
    if (as_string) {
      EXPECT_THROW((void)r.str(), ContractViolation);
    } else {
      EXPECT_THROW((void)r.vec_f64(), ContractViolation);
    }
  }
}

TEST(SnapshotContainer, BadMagicNamesHeaderAtOffsetZero) {
  std::string bytes = write_sample();
  bytes[0] = 'X';
  std::istringstream is(bytes, std::ios::binary);
  try {
    SnapshotReader reader(is, 0xfeedu);
    FAIL() << "bad magic accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_EQ(e.offset(), 0u);
  }
}

TEST(SnapshotContainer, UnsupportedVersionRejectedEvenWithValidChecksum) {
  std::string bytes = write_sample();
  // Patch version (bytes 8..11, little-endian) and re-checksum so only the
  // version check can fire.
  bytes[8] = static_cast<char>(kSnapshotVersion + 1);
  bytes = patch_checksum(std::move(bytes));
  std::istringstream is(bytes, std::ios::binary);
  try {
    SnapshotReader reader(is, 0xfeedu);
    FAIL() << "future version accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(SnapshotContainer, PreV4FilesRejected) {
  // Older files predate state the current reader depends on (v3 added the
  // "predict" section, v4 the conditional "links" section and the engine's
  // link-contention counters); every past version must be rejected up
  // front instead of hitting a missing section mid-restore.
  std::string bytes = write_sample();
  for (int version = 1; version < static_cast<int>(kSnapshotVersion); ++version) {
    bytes[8] = static_cast<char>(version);
    bytes = patch_checksum(std::move(bytes));
    std::istringstream is(bytes, std::ios::binary);
    try {
      SnapshotReader reader(is, 0xfeedu);
      FAIL() << "pre-v4 snapshot (v" << version << ") accepted";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.section(), "header");
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
  }
}

TEST(SnapshotContainer, V5FilesRejectedAsUnsupportedVersion) {
  // v6 dropped the bucketed placement index from the fingerprint and the
  // cluster section; a v5 file must fail the version check, not a parse.
  std::string bytes = write_sample();
  bytes[8] = 5;
  bytes = patch_checksum(std::move(bytes));
  std::istringstream is(bytes, std::ios::binary);
  try {
    SnapshotReader reader(is, 0xfeedu);
    FAIL() << "v5 snapshot accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_NE(std::string(e.what()).find("unsupported snapshot version 5"), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotContainer, V6FilesRejectedAsUnsupportedVersion) {
  // v7 stores a job's progress as a count instead of its delta-loss
  // history; a v6 "cluster" section would misparse, so the version check
  // must reject the file first.
  std::string bytes = write_sample();
  bytes[8] = 6;
  bytes = patch_checksum(std::move(bytes));
  std::istringstream is(bytes, std::ios::binary);
  try {
    SnapshotReader reader(is, 0xfeedu);
    FAIL() << "v6 snapshot accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_EQ(e.offset(), 8u);
    EXPECT_NE(std::string(e.what()).find("unsupported snapshot version 6"), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotContainer, V7FilesRejectedAsUnsupportedVersion) {
  // v8 drops the per-job observation buffers from the "predict" section; a
  // v7 section would misparse, so the version check must reject the file
  // first.
  std::string bytes = write_sample();
  bytes[8] = 7;
  bytes = patch_checksum(std::move(bytes));
  std::istringstream is(bytes, std::ios::binary);
  try {
    SnapshotReader reader(is, 0xfeedu);
    FAIL() << "v7 snapshot accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_EQ(e.offset(), 8u);
    EXPECT_NE(std::string(e.what()).find("unsupported snapshot version 7"), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotContainer, FingerprintMismatchRejected) {
  const std::string bytes = write_sample(0xfeedu);
  std::istringstream is(bytes, std::ios::binary);
  try {
    SnapshotReader reader(is, 0xbeefu);
    FAIL() << "fingerprint mismatch accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }
}

TEST(SnapshotContainer, TrailingGarbageRejected) {
  std::string bytes = write_sample();
  bytes += "junk";
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_THROW(SnapshotReader(is, 0xfeedu), SnapshotError);
}

// ----------------------------------------------------- subsystem round-trips

JobSpec snapshot_spec(int gpus) {
  JobSpec spec;
  spec.id = 0;
  spec.algorithm = MlAlgorithm::Mlp;
  spec.comm = CommStructure::AllReduce;
  spec.gpu_request = gpus;
  spec.max_iterations = 50;
  spec.seed = 3;
  return spec;
}

TEST(SnapshotSubsystems, ClusterStateReserializesIdentically) {
  ClusterConfig config;
  config.server_count = 3;
  config.gpus_per_server = 2;
  config.servers_per_rack = 2;
  Cluster cluster(config);
  auto inst = ModelZoo::instantiate(snapshot_spec(2), 0);
  cluster.register_job(std::move(inst.job), std::move(inst.tasks));
  cluster.place_task(0, 0, 0);
  cluster.place_task(1, 1, 0);
  cluster.set_server_up(2, false);
  cluster.set_placement_cap(1, 1);

  std::ostringstream first(std::ios::binary);
  {
    io::BinWriter w(first);
    cluster.save_state(w);
  }

  // Fresh cluster, identical construction path, then restore.
  Cluster twin(config);
  auto twin_inst = ModelZoo::instantiate(snapshot_spec(2), 0);
  twin.register_job(std::move(twin_inst.job), std::move(twin_inst.tasks));
  {
    std::istringstream is(first.str(), std::ios::binary);
    io::BinReader r(is);
    twin.restore_state(r);
  }
  EXPECT_EQ(twin.up_server_count(), cluster.up_server_count());
  EXPECT_EQ(twin.task(0).server, cluster.task(0).server);

  std::ostringstream second(std::ios::binary);
  {
    io::BinWriter w(second);
    twin.save_state(w);
  }
  EXPECT_EQ(first.str(), second.str());
}

// ------------------------------------------- crafted "cluster" payloads

/// The load-index tail of a "cluster" payload as Cluster::restore_state
/// reads it. Per-server arrays hold `servers` entries except array
/// `bad_array` (0..6 in serialization order: dirty flags, overload flags,
/// underload flags, slot estimates, utilizations, least-loaded GPUs, their
/// loads), whose length field says `bad_length` (at most servers + 1
/// entries actually follow).
struct CraftedIndex {
  bool valid = true;
  std::size_t servers = 3;
  std::vector<std::uint64_t> dirty_ids;
  std::vector<std::uint64_t> under_ids = {0, 1, 2};
  std::vector<std::uint64_t> over_ids;
  int bad_array = -1;
  std::uint64_t bad_length = 0;
};

std::string index_tail(const CraftedIndex& c) {
  std::ostringstream os(std::ios::binary);
  io::BinWriter w(os);
  std::size_t array = 0;
  const auto per_server = [&](const auto& write_one) {
    const std::uint64_t n = array++ == static_cast<std::size_t>(c.bad_array)
                                ? c.bad_length
                                : static_cast<std::uint64_t>(c.servers);
    w.u64(n);
    for (std::uint64_t i = 0; i < std::min<std::uint64_t>(n, c.servers + 1); ++i) write_one();
  };
  const auto ids = [&w](const std::vector<std::uint64_t>& v) {
    w.u64(v.size());
    for (const std::uint64_t id : v) w.u64(id);
  };
  w.boolean(c.valid);
  w.f64(c.valid ? 0.9 : -1.0);  // hr
  w.f64(0.45);                  // typical demand
  per_server([&w] { w.u8(0); });
  ids(c.dirty_ids);
  per_server([&w] { w.u8(0); });
  per_server([&w] { w.u8(1); });
  per_server([&w] { w.i64(0); });
  per_server([&w] {
    for (std::size_t r = 0; r < kNumResources; ++r) w.f64(0.0);
  });
  per_server([&w] { w.i64(0); });
  per_server([&w] { w.f64(0.0); });
  w.i64(0);  // total slots
  ids(c.under_ids);
  ids(c.over_ids);
  for (int i = 0; i < 4; ++i) w.u64(c.valid ? 7 : 0);  // LoadIndexStats
  return os.str();
}

/// A 3-server cluster with one placed job (same construction for the saver
/// and the restore target).
Cluster crafted_cluster() {
  ClusterConfig config;
  config.server_count = 3;
  config.gpus_per_server = 2;
  Cluster cluster(config);
  auto inst = ModelZoo::instantiate(snapshot_spec(2), 0);
  cluster.register_job(std::move(inst.job), std::move(inst.tasks));
  return cluster;
}

/// A "cluster" payload whose load-index tail is `index`: everything before
/// the tail comes from a real save of an unprimed cluster.
std::string crafted_cluster_state(const CraftedIndex& index) {
  Cluster cluster = crafted_cluster();
  cluster.place_task(0, 0, 0);
  std::ostringstream os(std::ios::binary);
  io::BinWriter w(os);
  cluster.save_state(w);
  const std::string saved = os.str();
  const std::string unprimed = index_tail(CraftedIndex{false, 0, {}, {}, {}});
  EXPECT_TRUE(saved.ends_with(unprimed)) << "unprimed index layout changed";
  return saved.substr(0, saved.size() - unprimed.size()) + index_tail(index);
}

/// Restores `bytes` into a fresh cluster; the failing restore must leave
/// the target's load index untouched.
void restore_cluster(const std::string& bytes) {
  Cluster target = crafted_cluster();
  std::istringstream is(bytes, std::ios::binary);
  io::BinReader r(is);
  try {
    target.restore_state(r);
  } catch (...) {
    EXPECT_EQ(target.load_index_stats().full_rebuilds, 0u);
    EXPECT_EQ(target.load_index_stats().refreshes, 0u);
    throw;
  }
}

void expect_cluster_rejected(const CraftedIndex& index, const std::string& needle) {
  try {
    restore_cluster(crafted_cluster_state(index));
    FAIL() << "crafted cluster state accepted; expected rejection mentioning '" << needle
           << "'";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(ClusterRestore, WellFormedCraftedIndexAccepted) {
  EXPECT_NO_THROW(restore_cluster(crafted_cluster_state({})));
  EXPECT_NO_THROW(restore_cluster(crafted_cluster_state({true, 3, {0, 2}, {1}, {0, 2}})));
  EXPECT_NO_THROW(restore_cluster(crafted_cluster_state({false, 0, {}, {}, {}})));
}

TEST(ClusterRestore, RejectsPerServerArraysOfTheWrongLength) {
  for (int array = 0; array < 7; ++array) {
    CraftedIndex longer;
    longer.bad_array = array;
    longer.bad_length = 4;
    expect_cluster_rejected(longer, "has 4 entries, expected 3");
    CraftedIndex shorter;
    shorter.bad_array = array;
    shorter.bad_length = 2;
    expect_cluster_rejected(shorter, "has 2 entries, expected 3");
  }
  // An unprimed index must carry empty arrays.
  expect_cluster_rejected({false, 3, {}, {}, {}}, "has 3 entries, expected 0");
}

TEST(ClusterRestore, RejectsOutOfRangeOrUnsortedIds) {
  expect_cluster_rejected({true, 3, {3}, {0, 1, 2}, {}}, "dirty list id 3 out of range");
  expect_cluster_rejected({true, 3, {2, 1}, {0, 1, 2}, {}},
                          "dirty list not strictly ascending at id 1");
  expect_cluster_rejected({true, 3, {1, 1}, {0, 1, 2}, {}},
                          "dirty list not strictly ascending at id 1");
  expect_cluster_rejected({true, 3, {}, {0, 5}, {}}, "underloaded partition id 5 out of range");
  expect_cluster_rejected({true, 3, {}, {1, 0}, {}},
                          "underloaded partition not strictly ascending");
  expect_cluster_rejected({true, 3, {}, {0, 1, 2}, {2, 2}},
                          "overloaded partition not strictly ascending");
}

TEST(ClusterRestore, RejectsCountsThatWouldDriveUnboundedAllocation) {
  // Rejected on the length field, before anything is reserved for it.
  CraftedIndex huge;
  huge.bad_array = 4;  // utilizations
  huge.bad_length = 1ull << 40;
  expect_cluster_rejected(huge, "has 1099511627776 entries, expected 3");
  CraftedIndex many_ids;
  many_ids.under_ids = std::vector<std::uint64_t>(4, 0);
  expect_cluster_rejected(many_ids, "underloaded partition lists 4 ids for 3 servers");
}

TEST(SnapshotSubsystems, HealthTrackerReserializesIdentically) {
  RecoveryConfig config;
  config.enabled = true;
  config.quarantine_enabled = true;
  ServerHealthTracker tracker(config, 4);
  tracker.record_crash(1, hours(1.0));
  tracker.record_task_kill(1, hours(1.5));
  tracker.record_crash(2, hours(2.0));
  tracker.record_recovery(1, hours(2.5));
  tracker.try_quarantine(1, hours(2.5));
  (void)tracker.advance(hours(3.0));

  std::ostringstream first(std::ios::binary);
  {
    io::BinWriter w(first);
    tracker.save_state(w);
  }
  ServerHealthTracker twin(config, 4);
  {
    std::istringstream is(first.str(), std::ios::binary);
    io::BinReader r(is);
    twin.restore_state(r);
  }
  // Lazy-decay arithmetic must match bit-exactly at any later query time.
  EXPECT_EQ(twin.score(1, hours(5.0)), tracker.score(1, hours(5.0)));
  EXPECT_EQ(twin.health(1), tracker.health(1));
  EXPECT_EQ(twin.quarantines(), tracker.quarantines());

  std::ostringstream second(std::ios::binary);
  {
    io::BinWriter w(second);
    twin.save_state(w);
  }
  EXPECT_EQ(first.str(), second.str());
}

TEST(SnapshotSubsystems, RngStreamResumesExactly) {
  Rng rng(99);
  for (int i = 0; i < 37; ++i) (void)rng.next_u64();
  const auto state = rng.state();
  Rng twin(1);  // different seed: state transplant must fully override it
  twin.set_state(state);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(twin.next_u64(), rng.next_u64());
}

// ------------------------------------------------------------ engine level

exp::RunRequest engine_request() {
  exp::RunRequest r;
  r.label = "snapshot-unit";
  r.cluster.server_count = 3;
  r.cluster.gpus_per_server = 4;
  r.cluster.servers_per_rack = 2;
  r.engine.seed = 17;
  r.engine.max_sim_time = hours(48.0);
  r.engine.fault.server_mtbf_hours = 24.0;
  r.engine.fault.task_kill_probability = 0.002;
  r.engine.recovery.enabled = true;
  r.engine.audit.enabled = true;
  r.engine.audit.stride = 1;
  r.trace.num_jobs = 8;
  r.trace.duration_hours = 1.0;
  r.trace.seed = 5;
  r.trace.max_gpu_request = 6;
  r.scheduler = "MLFS";
  return r;
}

std::string engine_snapshot_bytes(const SimEngine& engine) {
  std::ostringstream os(std::ios::binary);
  engine.save_snapshot(os);
  return os.str();
}

TEST(SnapshotEngine, MidRunSnapshotIsIdempotent) {
  exp::EngineBundle donor = exp::build_engine(engine_request());
  for (int i = 0; i < 100 && donor.engine->step(); ++i) {
  }
  const std::string first = engine_snapshot_bytes(*donor.engine);

  exp::EngineBundle twin = exp::build_engine(engine_request());
  {
    std::istringstream is(first, std::ios::binary);
    twin.engine->restore_snapshot(is);
  }
  EXPECT_EQ(twin.engine->events_processed(), donor.engine->events_processed());
  EXPECT_EQ(twin.engine->event_stream_hash(), donor.engine->event_stream_hash());
  // save → restore → save yields byte-identical files: event queue order,
  // RNG streams, metrics accumulators and scheduler state all round-trip.
  EXPECT_EQ(engine_snapshot_bytes(*twin.engine), first);
}

TEST(SnapshotEngine, CorruptRestoreLeavesEngineUntouched) {
  exp::EngineBundle donor = exp::build_engine(engine_request());
  for (int i = 0; i < 120 && donor.engine->step(); ++i) {
  }
  std::string corrupt = engine_snapshot_bytes(*donor.engine);
  corrupt[corrupt.size() / 2] = static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x01);

  // Reference: an untouched engine of the same request, stepped identically.
  exp::EngineBundle reference = exp::build_engine(engine_request());
  for (int i = 0; i < 40 && reference.engine->step(); ++i) {
  }
  exp::EngineBundle victim = exp::build_engine(engine_request());
  for (int i = 0; i < 40 && victim.engine->step(); ++i) {
  }
  {
    std::istringstream is(corrupt, std::ios::binary);
    EXPECT_THROW(victim.engine->restore_snapshot(is), SnapshotError);
  }
  // The failed restore must not have mutated anything: the victim finishes
  // its run bit-identically to the reference.
  while (reference.engine->step()) {
  }
  while (victim.engine->step()) {
  }
  const RunMetrics expected = reference.engine->finalize();
  const RunMetrics actual = victim.engine->finalize();
  EXPECT_TRUE(deterministic_equal(expected, actual));
  EXPECT_EQ(expected.event_stream_hash, actual.event_stream_hash);
}

TEST(SnapshotEngine, RestoreFromWrongConfigRejected) {
  exp::EngineBundle donor = exp::build_engine(engine_request());
  for (int i = 0; i < 50 && donor.engine->step(); ++i) {
  }
  const std::string bytes = engine_snapshot_bytes(*donor.engine);

  exp::RunRequest other = engine_request();
  other.trace.num_jobs = 9;  // different workload => different fingerprint
  exp::EngineBundle victim = exp::build_engine(other);
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_THROW(victim.engine->restore_snapshot(is), SnapshotError);
}

// -------------------------------------------------- v4: link contention

exp::RunRequest contended_engine_request() {
  exp::RunRequest r = engine_request();
  r.label = "snapshot-links";
  r.cluster.link_contention = true;
  r.cluster.duty_cycles = true;
  r.cluster.nic_capacity_mbps = 800.0;
  r.cluster.rack_uplink_capacity_mbps = 120.0;
  return r;
}

TEST(SnapshotEngine, MidCongestionSnapshotIsIdempotent) {
  // Contention + duty cycles on: the snapshot carries the v4 "links"
  // section (flow sets, duty cycles, phase offsets) and the engine's link
  // counters. Cut mid-run, restore into a fresh engine, demand the same
  // position and a byte-identical re-save.
  exp::EngineBundle donor = exp::build_engine(contended_engine_request());
  for (int i = 0; i < 150 && donor.engine->step(); ++i) {
  }
  const std::string first = engine_snapshot_bytes(*donor.engine);

  exp::EngineBundle twin = exp::build_engine(contended_engine_request());
  {
    std::istringstream is(first, std::ios::binary);
    twin.engine->restore_snapshot(is);
  }
  EXPECT_EQ(twin.engine->events_processed(), donor.engine->events_processed());
  EXPECT_EQ(twin.engine->event_stream_hash(), donor.engine->event_stream_hash());
  EXPECT_EQ(engine_snapshot_bytes(*twin.engine), first);

  // And the resumed run finishes bit-identically to the uninterrupted one,
  // link metrics included (deterministic_equal covers them).
  while (donor.engine->step()) {
  }
  while (twin.engine->step()) {
  }
  const RunMetrics expected = donor.engine->finalize();
  const RunMetrics actual = twin.engine->finalize();
  EXPECT_TRUE(deterministic_equal(expected, actual));
}

TEST(SnapshotEngine, ContentionConfigMismatchRejected) {
  // A snapshot taken with the link model on cannot restore into an engine
  // configured without it (and vice versa): the contention fields are part
  // of the config fingerprint, and the "links" section presence must match
  // the target config.
  exp::EngineBundle donor = exp::build_engine(contended_engine_request());
  for (int i = 0; i < 50 && donor.engine->step(); ++i) {
  }
  const std::string bytes = engine_snapshot_bytes(*donor.engine);

  exp::RunRequest off = contended_engine_request();
  off.cluster.link_contention = false;
  off.cluster.duty_cycles = false;
  exp::EngineBundle victim = exp::build_engine(off);
  {
    std::istringstream is(bytes, std::ios::binary);
    EXPECT_THROW(victim.engine->restore_snapshot(is), SnapshotError);
  }

  exp::EngineBundle plain = exp::build_engine(off);
  for (int i = 0; i < 50 && plain.engine->step(); ++i) {
  }
  const std::string plain_bytes = engine_snapshot_bytes(*plain.engine);
  exp::EngineBundle contended_victim = exp::build_engine(contended_engine_request());
  std::istringstream is(plain_bytes, std::ios::binary);
  EXPECT_THROW(contended_victim.engine->restore_snapshot(is), SnapshotError);
}

// ------------------------------------------- regression: stateful fixes

// The MLF-H placement memo (comm-cost cache) must round-trip, not merely be
// invalidated: its hit/miss counters feed SchedStats, so a restore that
// dropped the memo would drift comm_cache_hits vs the uninterrupted run.
TEST(SnapshotRegression, PlacementMemoCountersSurviveRestore) {
  exp::RunRequest request = engine_request();
  request.scheduler = "MLF-H";
  const auto result = exp::check_restore_equivalence(request, 0x1234567ull);
  ASSERT_TRUE(result.equivalent) << result.detail;
  EXPECT_EQ(result.restored.comm_cache_hits, result.reference.comm_cache_hits);
  EXPECT_EQ(result.restored.candidates_scanned, result.reference.candidates_scanned);
}

// The prediction service's curve-fit caches must round-trip: a restore
// that dropped the chains would refit them (different fits_cold /
// nm_objective_evals than the uninterrupted run — deterministic_equal
// would catch it), and one that mangled them would change OptStop
// decisions downstream.
TEST(SnapshotRegression, PredictionServiceCacheSurvivesRestore) {
  exp::RunRequest request = engine_request();
  request.trace.num_jobs = 16;  // enough draws for several OptStop jobs
  const auto result = exp::check_restore_equivalence(request, 0x7654321ull);
  ASSERT_TRUE(result.equivalent) << result.detail;
  // The workload's policy mix (30% OptStop) must actually have exercised
  // the fit chains, or this test proves nothing.
  EXPECT_GT(result.reference.fits_cold + result.reference.fits_warm, 0u);
  EXPECT_EQ(result.restored.fits_cold, result.reference.fits_cold);
  EXPECT_EQ(result.restored.fits_warm, result.reference.fits_warm);
  EXPECT_EQ(result.restored.prediction_cache_hits, result.reference.prediction_cache_hits);
  EXPECT_EQ(result.restored.nm_objective_evals, result.reference.nm_objective_evals);
}

// A policy agent's save_state must capture network parameters, optimizer
// moments AND the action-sampling RNG — save()/load() (text checkpoints)
// deliberately drop the latter two, which a resumed training run cannot
// afford.
TEST(SnapshotRegression, ReinforceAgentFullStateRoundTrips) {
  rl::ReinforceConfig config;
  config.state_dim = 4;
  config.action_dim = 3;
  config.hidden = {8};
  config.seed = 21;
  rl::ReinforceAgent agent(config);
  // Burn RNG draws so the stream is mid-sequence.
  const std::vector<double> state = {0.1, -0.2, 0.3, 0.4};
  for (int i = 0; i < 17; ++i) (void)agent.act(state);

  std::ostringstream saved(std::ios::binary);
  agent.save_state(saved);

  rl::ReinforceAgent twin(config);
  (void)twin.act(state);  // desynchronize before restore
  {
    std::istringstream is(saved.str(), std::ios::binary);
    twin.restore_state(is);
  }
  for (int i = 0; i < 32; ++i) EXPECT_EQ(twin.act(state), agent.act(state));

  // And the restore is lossless: re-saving reproduces the original bytes.
  {
    std::istringstream is(saved.str(), std::ios::binary);
    twin.restore_state(is);
  }
  std::ostringstream resaved(std::ios::binary);
  twin.save_state(resaved);
  EXPECT_EQ(resaved.str(), saved.str());
}

// The engine's live-job set and pending-arrival heap are derived state:
// neither is serialized, both are rebuilt on restore. A cut right after a
// scheduling tick that left a gang partially placed, with trace and
// injected arrivals still pending, must resume bit-identically — under
// the auditor, which re-derives the live set from scratch at every event.
struct PlacementCounter final : EngineObserver {
  std::size_t placements = 0;
  void on_task_placed(SimTime, TaskId, ServerId, int) override { ++placements; }
};

bool has_partial_gang(const Cluster& cluster) {
  for (const Job& job : cluster.jobs()) {
    if (job.done() || job.state() != JobState::Waiting) continue;
    std::size_t placed = 0;
    for (const TaskId tid : job.tasks()) placed += cluster.task(tid).placed() ? 1 : 0;
    if (placed > 0 && !cluster.job_fully_placed(job)) return true;
  }
  return false;
}

bool has_pending_arrival(const Cluster& cluster, SimTime now) {
  for (const Job& job : cluster.jobs()) {
    if (job.spec().arrival > now) return true;
  }
  return false;
}

TEST(SnapshotEngine, RestoreAtTickWithPartialPlacementsAndPendingArrivals) {
  exp::RunRequest request = engine_request();
  request.label = "snapshot-live-set";
  request.trace.num_jobs = 16;
  request.trace.duration_hours = 3.0;
  request.trace.max_gpu_request = 8;

  exp::EngineBundle donor = exp::build_engine(request);
  PlacementCounter counter;
  donor.engine->set_observer(&counter);
  bool found = false;
  for (int i = 0; i < 5000 && !found; ++i) {
    const std::size_t before = counter.placements;
    if (!donor.engine->step()) break;
    // Placements only happen inside a scheduling round, so this event was
    // a tick.
    found = counter.placements > before && has_partial_gang(donor.engine->cluster()) &&
            has_pending_arrival(donor.engine->cluster(), donor.engine->now());
  }
  ASSERT_TRUE(found) << "no tick left a partial gang with arrivals pending";
  donor.engine->set_observer(nullptr);

  // Streamed jobs on top: one due at this very instant (admitted before its
  // Arrival event runs), one far in the future.
  JobSpec now_spec = request.workload ? request.workload->front()
                                      : PhillyTraceGenerator(request.trace).generate().front();
  JobSpec later_spec = now_spec;
  now_spec.arrival = donor.engine->now();
  later_spec.arrival = donor.engine->now() + hours(2.0);
  donor.engine->inject_job(now_spec);
  donor.engine->inject_job(later_spec);
  const std::string bytes = engine_snapshot_bytes(*donor.engine);

  exp::EngineBundle twin = exp::build_engine(request);
  {
    std::istringstream is(bytes, std::ios::binary);
    twin.engine->restore_snapshot(is);
  }
  EXPECT_EQ(twin.engine->event_stream_hash(), donor.engine->event_stream_hash());
  EXPECT_EQ(engine_snapshot_bytes(*twin.engine), bytes);

  while (donor.engine->step()) {
  }
  while (twin.engine->step()) {
  }
  const RunMetrics expected = donor.engine->finalize();
  const RunMetrics actual = twin.engine->finalize();
  EXPECT_EQ(actual.event_stream_hash, expected.event_stream_hash);
  EXPECT_EQ(actual.jobs_injected, 2u);
  EXPECT_TRUE(deterministic_equal(expected, actual));
}

// ------------------------------------------- v7: state-sized snapshots

std::string section_payload(const std::string& snapshot, std::uint64_t fingerprint,
                            const std::string& name) {
  std::istringstream is(snapshot, std::ios::binary);
  SnapshotReader reader(is, fingerprint);
  return reader.section(name).str();
}

// Re-frames `snapshot` with one section's payload replaced and a valid
// checksum: a crafted file that passes every container check.
std::string replace_section(const std::string& snapshot, std::uint64_t fingerprint,
                            const std::string& name, const std::string& payload) {
  std::istringstream is(snapshot, std::ios::binary);
  SnapshotReader reader(is, fingerprint);
  SnapshotWriter writer(fingerprint);
  for (const char* section : {"engine", "events", "injected", "cluster", "links", "health",
                              "predictor", "predict", "scheduler", "controller"}) {
    if (!reader.has_section(section)) continue;
    const std::string bytes = section == name ? payload : reader.section(section).str();
    writer.section(section).bytes(bytes.data(), bytes.size());
  }
  std::ostringstream os(std::ios::binary);
  writer.write(os);
  return os.str();
}

TEST(SnapshotEngine, InjectedSpecWithNaNArrivalRejectedBeforeRegistering) {
  exp::RunRequest request = engine_request();
  exp::EngineBundle donor = exp::build_engine(request);
  for (int i = 0; i < 60 && donor.engine->step(); ++i) {
  }
  const JobSpec base = PhillyTraceGenerator(request.trace).generate().front();
  JobSpec first = base;
  first.arrival = donor.engine->now() + 60.0;
  donor.engine->inject_job(first);
  donor.engine->inject_job(first);
  const std::uint64_t fingerprint = donor.engine->config_fingerprint();
  const std::string bytes = engine_snapshot_bytes(*donor.engine);

  // The second streamed spec gets a NaN arrival; the first stays valid, so
  // a restore that registered specs one by one would half-grow the engine.
  std::vector<JobSpec> specs = donor.engine->injected_specs();
  ASSERT_EQ(specs.size(), 2u);
  specs[1].arrival = std::numeric_limits<double>::quiet_NaN();
  std::ostringstream crafted(std::ios::binary);
  {
    io::BinWriter w(crafted);
    w.u64(specs.size());
    for (const JobSpec& spec : specs) write_job_spec(w, spec);
  }
  const std::string bad = replace_section(bytes, fingerprint, "injected", crafted.str());

  exp::EngineBundle victim = exp::build_engine(request);
  const std::size_t jobs_before = victim.engine->cluster().job_count();
  const std::size_t tasks_before = victim.engine->cluster().task_count();
  std::istringstream is(bad, std::ios::binary);
  try {
    victim.engine->restore_snapshot(is);
    FAIL() << "NaN arrival accepted";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("job " + std::to_string(specs[1].id)), std::string::npos) << what;
    EXPECT_NE(what.find("arrival"), std::string::npos) << what;
  }
  EXPECT_EQ(victim.engine->cluster().job_count(), jobs_before);
  EXPECT_EQ(victim.engine->cluster().task_count(), tasks_before);
  EXPECT_TRUE(victim.engine->injected_specs().empty());

  // The untampered file still restores.
  exp::EngineBundle twin = exp::build_engine(request);
  std::istringstream good(bytes, std::ios::binary);
  twin.engine->restore_snapshot(good);
  EXPECT_EQ(twin.engine->cluster().job_count(), jobs_before + 2);
}

// Bytes of the cluster section that depend on where tasks are placed: the
// servers' resident-task lists and the load index's id lists. The caller
// refreshes the index first, so its dirty list is empty.
std::size_t placement_dependent_bytes(const SimEngine& engine) {
  const Cluster& cluster = engine.cluster();
  std::size_t ids = 0;
  for (ServerId s = 0; s < cluster.server_count(); ++s) {
    const Server& server = cluster.server(s);
    ids += server.tasks().size();
    for (int g = 0; g < server.gpu_count(); ++g) ids += server.tasks_on_gpu(g).size();
  }
  ids += cluster.underloaded_index(engine.config().hr).size();
  ids += cluster.overloaded_count(engine.config().hr);
  return 8 * ids;
}

TEST(SnapshotEngine, ClusterSectionDoesNotGrowWithIterationsRun) {
  // A job's progress is serialized as a count, so apart from the ids of
  // placed tasks the cluster section has the same size at every point of
  // a run (v6 added eight bytes per completed iteration).
  exp::RunRequest request = engine_request();
  request.label = "snapshot-size";
  request.trace.num_jobs = 12;
  std::uint64_t total_events = 0;
  {
    exp::EngineBundle probe = exp::build_engine(request);
    while (probe.engine->step()) {
    }
    total_events = probe.engine->events_processed();
  }
  ASSERT_GT(total_events, 100u);

  exp::EngineBundle bundle = exp::build_engine(request);
  SimEngine& engine = *bundle.engine;
  std::vector<std::size_t> fixed_sizes;
  std::vector<long> iterations;
  for (const double fraction : {0.25, 0.5, 0.9}) {
    const auto stop = static_cast<std::uint64_t>(fraction * static_cast<double>(total_events));
    while (engine.events_processed() < stop && engine.step()) {
    }
    // Refresh the lazy load index so its serialized id lists are exactly
    // the ones placement_dependent_bytes counts.
    const std::size_t variable = placement_dependent_bytes(engine);
    const std::string bytes = engine_snapshot_bytes(engine);
    const std::string cluster =
        section_payload(bytes, engine.config_fingerprint(), "cluster");
    fixed_sizes.push_back(cluster.size() - variable);
    long done = 0;
    for (const Job& job : engine.cluster().jobs()) done += job.completed_iterations();
    iterations.push_back(done);
  }
  EXPECT_LT(iterations[0], iterations[1]);
  EXPECT_LT(iterations[1], iterations[2]);
  EXPECT_EQ(fixed_sizes[0], fixed_sizes[1]);
  EXPECT_EQ(fixed_sizes[1], fixed_sizes[2]);
}

}  // namespace
}  // namespace mlfs
