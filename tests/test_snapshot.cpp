// Snapshot subsystem: file framing, engine state round-trips, O(tail)
// recovery after WAL compaction, and the corruption-fallback chain
// (newest snapshot lost -> previous generation + rotated segment; both
// generations lost -> hard error; uncompacted history -> full replay).

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/jigsaw_allocator.hpp"
#include "obs/sink.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "service/snapshot.hpp"
#include "service/wal.hpp"
#include "sim/engine.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "util/binio.hpp"
#include "util/rng.hpp"

namespace jigsaw::service {
namespace {

bool is_ok(const std::string& reply) {
  return reply.rfind("{\"ok\":true", 0) == 0;
}

bool has_error(const std::string& reply, const char* code) {
  return reply.find("\"ok\":false") != std::string::npos &&
         reply.find(std::string("\"error\":\"") + code + "\"") !=
             std::string::npos;
}

std::string metrics_text(const std::string& drain_reply) {
  const std::size_t key = drain_reply.find("\"metrics\":");
  if (key == std::string::npos) return {};
  const std::size_t open = drain_reply.find('{', key);
  const std::size_t close = drain_reply.find('}', open);
  if (open == std::string::npos || close == std::string::npos) return {};
  return drain_reply.substr(open, close - open + 1);
}

std::string scrub_wall_fields(std::string text) {
  for (const char* key :
       {"\"sched_wall_seconds\":", "\"mean_sched_time_per_job\":"}) {
    const std::size_t at = text.find(key);
    if (at == std::string::npos) continue;
    std::size_t end = text.find(',', at);
    if (end == std::string::npos) end = text.find('}', at);
    text.erase(at, end - at + 1);
  }
  return text;
}

/// Deterministic submit lines for the 16-node radix-4 tree: a mix of
/// sizes, runtimes, and spaced arrivals so drains exercise queueing and
/// backfill, not just a single pass.
std::vector<std::string> workload(std::size_t count) {
  Rng rng(0x5EEDC0DEULL);
  std::vector<std::string> lines;
  double arrival = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    arrival += rng.uniform(0.0, 40.0);
    const int nodes = 1 + static_cast<int>(rng.uniform(0.0, 6.0));
    const double runtime = rng.uniform(30.0, 900.0);
    std::string line = "{\"op\":\"submit\",\"id\":" + std::to_string(k) +
                       ",\"nodes\":" + std::to_string(nodes) +
                       ",\"runtime\":";
    append_double(line, runtime);
    line += ",\"arrival\":";
    append_double(line, arrival);
    line += "}";
    lines.push_back(std::move(line));
  }
  return lines;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// File framing.
// ---------------------------------------------------------------------------

/// Fixed SnapshotData with every field away from its default.
SnapshotData sample_snapshot() {
  SnapshotData data;
  data.epoch = 7;
  data.clock = "virtual";
  data.next_job_id = 42;
  data.next_corr = 9;
  data.corr = {{3, 1}, {5, 2}, {41, 8}};
  data.grants = 4;
  data.releases = 3;
  data.wall_target = 123.25;
  data.drained = true;
  // Arbitrary binary payload, embedded NULs included: the frame must be
  // 8-bit clean because engine blobs are raw binio bytes.
  data.engine_blob = std::string("\x00\xff\x7f engine\n\x01", 11);
  return data;
}

/// Submit a 40-job radix-4 workload and process 30 event batches, so
/// queues, the running set and the accumulators are all non-trivial.
void drive_mid_run(SimEngine& engine) {
  Rng rng(0x5EEDC0DEULL);
  double arrival = 0.0;
  for (std::size_t k = 0; k < 40; ++k) {
    arrival += rng.uniform(0.0, 40.0);
    Job job;
    job.id = static_cast<JobId>(k);
    job.nodes = 1 + static_cast<int>(rng.uniform(0.0, 6.0));
    job.runtime = rng.uniform(30.0, 900.0);
    job.arrival = arrival;
    engine.submit(job);
  }
  for (int k = 0; k < 30 && !engine.idle(); ++k) engine.step();
}

/// The defrag stall trace on FatTree(4, 4, 4), stepped to t=100: three
/// steps leave the adopted plan awaiting its migration-start event, a
/// fourth runs the migration and leaves its window open.
void drive_to_defrag_plan(SimEngine& engine, int steps) {
  for (const Job& j : testing::defrag_stall_trace()) engine.submit(j);
  for (int k = 0; k < steps; ++k) engine.step();
}

SimConfig defrag_config() {
  SimConfig config;
  config.defrag.enabled = true;
  config.defrag.migration_cost = 40.0;
  return config;
}

TEST(SnapshotFile, RoundTripPreservesEveryField) {
  const std::string path =
      ::testing::TempDir() + "snap_roundtrip_" + std::to_string(::getpid());
  std::remove(path.c_str());

  const SnapshotData data = sample_snapshot();
  std::string error;
  ASSERT_TRUE(write_snapshot_file(path, data, &error)) << error;

  SnapshotData out;
  EXPECT_EQ(read_snapshot_file(path, &out, &error), SnapshotReadStatus::kOk)
      << error;
  EXPECT_EQ(out.epoch, 7u);
  EXPECT_EQ(out.clock, "virtual");
  EXPECT_EQ(out.next_job_id, 42);
  EXPECT_EQ(out.next_corr, 9u);
  EXPECT_EQ(out.corr, data.corr);
  EXPECT_EQ(out.grants, 4u);
  EXPECT_EQ(out.releases, 3u);
  EXPECT_EQ(out.wall_target, 123.25);
  EXPECT_TRUE(out.drained);
  EXPECT_EQ(out.engine_blob, data.engine_blob);

  // The tmp staging file must not linger after a successful rename.
  EXPECT_EQ(read_snapshot_file(path + ".tmp", &out, &error),
            SnapshotReadStatus::kMissing);
  std::remove(path.c_str());
}

TEST(SnapshotFile, MissingAndCorruptAreDistinguished) {
  const std::string path =
      ::testing::TempDir() + "snap_corrupt_" + std::to_string(::getpid());
  std::remove(path.c_str());

  SnapshotData out;
  std::string error = "unset";
  EXPECT_EQ(read_snapshot_file(path, &out, &error),
            SnapshotReadStatus::kMissing);
  EXPECT_TRUE(error.empty());  // missing is not an error

  SnapshotData data;
  data.epoch = 1;
  data.clock = "virtual";
  data.engine_blob = "payload bytes";
  ASSERT_TRUE(write_snapshot_file(path, data, &error)) << error;
  const std::string pristine = read_file(path);
  ASSERT_FALSE(pristine.empty());

  // A flipped payload byte fails the checksum.
  std::string damaged = pristine;
  damaged[damaged.size() / 2] =
      static_cast<char>(damaged[damaged.size() / 2] ^ 0x40);
  write_file(path, damaged);
  error.clear();
  EXPECT_EQ(read_snapshot_file(path, &out, &error),
            SnapshotReadStatus::kCorrupt);
  EXPECT_FALSE(error.empty());

  // Truncation inside the header is corrupt too, not missing.
  write_file(path, pristine.substr(0, 10));
  EXPECT_EQ(read_snapshot_file(path, &out, &error),
            SnapshotReadStatus::kCorrupt);

  // Wrong magic: some other file at the path.
  write_file(path, "definitely not a snapshot file, long enough to read");
  EXPECT_EQ(read_snapshot_file(path, &out, &error),
            SnapshotReadStatus::kCorrupt);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Engine state round-trip: a restored engine continues the run with
// %.17g-identical metrics, and re-serialization is byte-deterministic.
// ---------------------------------------------------------------------------

TEST(SnapshotEngine, MidRunSerializeRestoresBitIdentical) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;

  SimEngine engine(topo, allocator, config);
  drive_mid_run(engine);
  ASSERT_FALSE(engine.idle());  // capture genuinely mid-run

  std::string blob;
  std::string error;
  ASSERT_TRUE(engine.serialize(&blob, &error)) << error;

  SimEngine restored(topo, allocator, config);
  ASSERT_TRUE(restored.deserialize(blob, &error)) << error;

  // Byte-deterministic: re-serializing the restored engine reproduces
  // the blob exactly (unordered state must be written in a pinned order).
  std::string blob2;
  ASSERT_TRUE(restored.serialize(&blob2, &error)) << error;
  EXPECT_EQ(blob, blob2);

  engine.run();
  restored.run();
  EXPECT_EQ(scrub_wall_fields(metrics_json(restored.finish())),
            scrub_wall_fields(metrics_json(engine.finish())));
}

TEST(SnapshotEngine, DeserializeRejectsDamagedBlob) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  SimEngine engine(topo, allocator, config);
  Job job;
  job.id = 0;
  job.nodes = 2;
  job.runtime = 100.0;
  job.arrival = 12.5;
  engine.submit(job);

  std::string blob;
  std::string error;
  ASSERT_TRUE(engine.serialize(&blob, &error)) << error;

  SimEngine victim(topo, allocator, config);
  EXPECT_FALSE(victim.deserialize(blob.substr(0, blob.size() / 2), &error));
  EXPECT_FALSE(error.empty());

  // The only pending event is the arrival: its time is the first place
  // the bit pattern of 12.5 appears, and its type byte follows it.
  const double arrival = 12.5;
  std::string time_bytes(sizeof(arrival), '\0');
  std::memcpy(time_bytes.data(), &arrival, sizeof(arrival));
  const std::size_t event = blob.find(time_bytes);
  ASSERT_NE(event, std::string::npos);
  const std::size_t type_at = event + sizeof(arrival);
  ASSERT_EQ(blob[type_at], 0);  // EventType::kArrival

  // An event type past the last enumerator.
  std::string damaged = blob;
  damaged[type_at] = static_cast<char>(0xEE);
  error.clear();
  SimEngine bad_type(topo, allocator, config);
  EXPECT_FALSE(bad_type.deserialize(damaged, &error));
  EXPECT_FALSE(error.empty());

  // An arrival naming a job the blob never submitted.
  damaged = blob;
  damaged[type_at + 1] = 77;  // low byte of the event's job id
  error.clear();
  SimEngine bad_job(topo, allocator, config);
  EXPECT_FALSE(bad_job.deserialize(damaged, &error));
  EXPECT_FALSE(error.empty());

  // A running job whose first node id is one past the last node: the
  // release at its completion would index out of range.
  SimEngine running(topo, allocator, config);
  Job started = job;
  started.arrival = 0.0;
  running.submit(started);
  running.advance_until(0.0);
  const auto status = running.status(started.id);
  ASSERT_TRUE(status.has_value());
  ASSERT_EQ(status->phase, JobPhase::kRunning);
  std::string running_blob;
  ASSERT_TRUE(running.serialize(&running_blob, &error)) << error;
  // The running record: id, end time, then the allocation's job id,
  // requested nodes and node count, followed by the node ids.
  std::string record;
  BufWriter w(record);
  w.i64(started.id);
  w.f64(status->start + started.runtime);
  w.i64(started.id);
  w.i64(started.nodes);
  w.u64(std::uint64_t{2});
  const std::size_t at = running_blob.find(record);
  ASSERT_NE(at, std::string::npos);
  damaged = running_blob;
  const auto past_end = static_cast<std::uint32_t>(topo.total_nodes());
  std::memcpy(damaged.data() + at + record.size(), &past_end,
              sizeof(past_end));
  error.clear();
  SimEngine bad_node(topo, allocator, config);
  bool restored = true;
  EXPECT_NO_THROW(restored = bad_node.deserialize(damaged, &error));
  EXPECT_FALSE(restored);
  EXPECT_FALSE(error.empty());

  // A pending fault whose target names a node past the tree: its event
  // would expand into ClusterState indices out of range.
  SimEngine faulted(topo, allocator, config);
  const fault::FaultEvent fail_node{50.0, true, {fault::ResourceKind::kNode, 3}};
  faulted.add_fault(fail_node.time, fail_node.failure, fail_node.target);
  std::string faulted_blob;
  ASSERT_TRUE(faulted.serialize(&faulted_blob, &error)) << error;
  fault::FaultEvent past_tree = fail_node;
  past_tree.target.a = 99999;
  std::string fault_bytes;
  std::string past_tree_bytes;
  BufWriter fault_writer(fault_bytes);
  BufWriter past_tree_writer(past_tree_bytes);
  fault::event_fields(fault_writer, fail_node);
  fault::event_fields(past_tree_writer, past_tree);
  const std::size_t fault_at = faulted_blob.find(fault_bytes);
  ASSERT_NE(fault_at, std::string::npos);
  damaged = faulted_blob;
  damaged.replace(fault_at, fault_bytes.size(), past_tree_bytes);
  error.clear();
  SimEngine bad_fault(topo, allocator, config);
  restored = true;
  EXPECT_NO_THROW(restored = bad_fault.deserialize(damaged, &error));
  EXPECT_FALSE(restored);
  EXPECT_FALSE(error.empty());
}

// Corruption property over a blob with a defrag plan in flight (its
// moves and their allocations are in the blob). Every proper prefix is
// refused. Overwriting any 8-byte window with 2^62 covers every
// sequence count; the blob is then refused, or it held a plain value
// (a time, a mask, an id) and the restored engine writes the damaged
// bytes back unchanged, which a count of 2^62 can never do. Nothing
// throws.
TEST(SnapshotEngine, DamagedBlobIsRefusedNotThrown) {
  const FatTree topo(4, 4, 4);
  const JigsawAllocator allocator;
  const SimConfig config = defrag_config();
  SimEngine engine(topo, allocator, config);
  drive_to_defrag_plan(engine, 3);
  ASSERT_EQ(engine.next_time(), engine.now());  // migration start pending

  std::string blob;
  std::string error;
  ASSERT_TRUE(engine.serialize(&blob, &error)) << error;

  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    SimEngine victim(topo, allocator, config);
    error.clear();
    bool restored = true;
    EXPECT_NO_THROW(restored = victim.deserialize(blob.substr(0, cut), &error))
        << "cut at " << cut;
    EXPECT_FALSE(restored) << "cut at " << cut;
    EXPECT_FALSE(error.empty()) << "cut at " << cut;
  }

  const std::uint64_t huge = std::uint64_t{1} << 62;
  std::size_t refused = 0;
  for (std::size_t at = 0; at + 8 <= blob.size(); ++at) {
    std::string damaged = blob;
    for (std::size_t b = 0; b < 8; ++b) {
      damaged[at + b] = static_cast<char>((huge >> (8 * b)) & 0xffu);
    }
    SimEngine victim(topo, allocator, config);
    error.clear();
    bool restored = false;
    EXPECT_NO_THROW(restored = victim.deserialize(damaged, &error))
        << "window at " << at;
    if (!restored) {
      EXPECT_FALSE(error.empty()) << "window at " << at;
      ++refused;
      continue;
    }
    std::string again;
    ASSERT_TRUE(victim.serialize(&again, &error)) << error;
    EXPECT_TRUE(again == damaged) << "window at " << at;
  }
  EXPECT_GT(refused, 0u);
}

// ---------------------------------------------------------------------------
// Format goldens: crc32 and length of three engine blobs (mid-run; the
// defrag stall trace with its plan adopted, and with its migration
// window open), of a JGSWSNP1 file, and of a JGSWWAL2 log. The blob and
// file values come from the hand-written encoders the field lists
// replaced, so a list that moves any byte of blob v4 or file v1 fails
// here; the log's pin keeps the WAL record lists from drifting unless
// its magic moves.
// ---------------------------------------------------------------------------

std::uint32_t blob_version(const std::string& blob) {
  std::uint32_t version = 0;
  for (std::size_t k = 0; k < 4 && k < blob.size(); ++k) {
    version |= static_cast<std::uint32_t>(static_cast<unsigned char>(blob[k]))
               << (8 * k);
  }
  return version;
}

std::string u64_bytes(std::uint64_t v) {
  std::string bytes(8, '\0');
  for (std::size_t k = 0; k < 8; ++k) {
    bytes[k] = static_cast<char>((v >> (8 * k)) & 0xffu);
  }
  return bytes;
}

/// crc32 of an engine blob taken before finish(), with its one
/// wall-clock field, SimMetrics::sched_wall_seconds, zeroed. The field
/// sits between two values the test knows, `completed` and
/// `sched_passes` (one per step), so every 8 bytes found between those
/// two are zeroed; the rest of the blob is deterministic.
std::uint32_t crc_without_wall_time(std::string blob, std::uint64_t completed,
                                    std::uint64_t passes) {
  const std::string before = u64_bytes(completed);
  const std::string after = u64_bytes(passes);
  int matches = 0;
  for (std::size_t at = 0; at + 24 <= blob.size(); ++at) {
    if (blob.compare(at, 8, before) == 0 &&
        blob.compare(at + 16, 8, after) == 0) {
      blob.replace(at + 8, 8, 8, '\0');
      ++matches;
    }
  }
  EXPECT_GE(matches, 1);
  return crc32(blob.data(), blob.size());
}

TEST(SnapshotFormat, BytesMatchGoldens) {
  std::string error;
  {
    const FatTree topo = FatTree::from_radix(4);
    JigsawAllocator allocator;
    SimEngine engine(topo, allocator, SimConfig{});
    drive_mid_run(engine);
    std::string blob;
    ASSERT_TRUE(engine.serialize(&blob, &error)) << error;
    EXPECT_EQ(blob_version(blob), 4u);
    EXPECT_EQ(blob.size(), 5444u);
    EXPECT_EQ(crc_without_wall_time(blob, engine.completed_count(), 30),
              2193442137u);
  }
  // Defrag stall trace with the plan adopted (3 steps: the blob holds
  // its moves) and with its migration window open (4 steps).
  const std::size_t defrag_sizes[2] = {3576u, 3706u};
  const std::uint32_t defrag_crcs[2] = {140049073u, 1894804345u};
  for (int k = 0; k < 2; ++k) {
    const FatTree topo(4, 4, 4);
    const JigsawAllocator allocator;
    SimEngine engine(topo, allocator, defrag_config());
    drive_to_defrag_plan(engine, 3 + k);
    ASSERT_EQ(engine.migrations_in_flight(), k);
    std::string blob;
    ASSERT_TRUE(engine.serialize(&blob, &error)) << error;
    EXPECT_EQ(blob_version(blob), 4u);
    EXPECT_EQ(blob.size(), defrag_sizes[k]);
    EXPECT_EQ(crc_without_wall_time(blob, engine.completed_count(), 3 + k),
              defrag_crcs[k]);
  }
  {
    const std::string path =
        ::testing::TempDir() + "snap_golden_" + std::to_string(::getpid());
    ASSERT_TRUE(write_snapshot_file(path, sample_snapshot(), &error)) << error;
    const std::string file = read_file(path);
    std::remove(path.c_str());
    EXPECT_EQ(file.size(), 163u);
    EXPECT_EQ(crc32(file.data(), file.size()), 3400645537u);
  }
  {
    // A fixed virtual-clock session that writes every record type: the
    // snapshot rotates the submits, cancel and faults into <wal>.prev and
    // opens the segment that holds the marker, the drain, and the drain's
    // grants and releases.
    const std::string wal =
        ::testing::TempDir() + "wal_golden_" + std::to_string(::getpid());
    const FatTree topo = FatTree::from_radix(4);
    JigsawAllocator allocator;
    DaemonOptions options;
    options.wal_path = wal;
    {
      ServiceDaemon daemon(topo, allocator, SimConfig{}, options);
      ASSERT_TRUE(daemon.init(&error)) << error;
      for (const std::string& line : workload(12)) {
        ASSERT_TRUE(is_ok(daemon.handle_line(line)));
      }
      for (const char* line :
           {"{\"op\":\"cancel\",\"job\":7}",
            "{\"op\":\"fail\",\"target\":\"leafswitch 2\",\"time\":90}",
            "{\"op\":\"repair\",\"target\":\"leafswitch 2\",\"time\":600}",
            "{\"op\":\"snapshot\"}", "{\"op\":\"drain\"}"}) {
        ASSERT_TRUE(is_ok(daemon.handle_line(line))) << line;
      }
    }
    const std::string log = read_file(wal + ".prev") + read_file(wal);
    std::remove(wal.c_str());
    std::remove((wal + ".prev").c_str());
    std::remove(snapshot_path(wal, 1).c_str());
    EXPECT_EQ(log.size(), 1800u);
    EXPECT_EQ(crc32(log.data(), log.size()), 2200599247u);
  }
}

// ---------------------------------------------------------------------------
// Daemon recovery through snapshots.
// ---------------------------------------------------------------------------

class SnapshotRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wal_path_ =
        ::testing::TempDir() + "snapshot_recovery_" +
        std::to_string(::getpid()) + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".wal";
    cleanup();
  }
  void TearDown() override { cleanup(); }

  void cleanup() {
    std::remove(wal_path_.c_str());
    free_prev();  // the segment or the squatting directory
    for (std::uint64_t e = 1; e <= 4; ++e) {
      std::remove(snapshot_path(wal_path_, e).c_str());
      std::remove((snapshot_path(wal_path_, e) + ".tmp").c_str());
    }
  }

  /// Uninterrupted no-WAL reference: replay `lines` (plus optional
  /// cancels), drain, return the scrubbed metrics object text.
  std::string reference_metrics(const FatTree& topo,
                                const JigsawAllocator& allocator,
                                const SimConfig& config,
                                const std::vector<std::string>& lines,
                                const std::vector<JobId>& cancels) {
    ServiceDaemon daemon(topo, allocator, config, DaemonOptions{});
    std::string error;
    EXPECT_TRUE(daemon.init(&error)) << error;
    for (const std::string& line : lines) {
      EXPECT_TRUE(is_ok(daemon.handle_line(line)));
    }
    for (const JobId id : cancels) {
      EXPECT_TRUE(is_ok(daemon.handle_line(
          "{\"op\":\"cancel\",\"job\":" + std::to_string(id) + "}")));
    }
    return scrub_wall_fields(
        metrics_text(daemon.handle_line("{\"op\":\"drain\"}")));
  }

  /// Make <wal>.prev a non-empty directory, which no rotation can
  /// rename the segment onto; free_prev() clears it again.
  void squat_prev() {
    ASSERT_EQ(::mkdir((wal_path_ + ".prev").c_str(), 0755), 0);
    write_file(wal_path_ + ".prev/keep", "x");
  }
  bool free_prev() {
    std::remove((wal_path_ + ".prev/keep").c_str());
    return std::remove((wal_path_ + ".prev").c_str()) == 0;
  }

  std::string wal_path_;
};

std::size_t logged_submits(const std::string& wal_path) {
  std::size_t count = 0;
  for (const WalRecord& record : read_wal(wal_path).records) {
    if (record.type == WalRecordType::kSubmit) ++count;
  }
  return count;
}

TEST_F(SnapshotRecoveryTest, SnapshotOpWithoutWalIsBadState) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  ServiceDaemon daemon(topo, allocator, config, DaemonOptions{});
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;
  EXPECT_TRUE(
      has_error(daemon.handle_line("{\"op\":\"snapshot\"}"), "bad_state"));
}

// The headline property: after a compaction, recovery replays only the
// records behind the snapshot marker (O(tail), not O(history)) and still
// lands on metrics bit-identical to an uninterrupted run — even when the
// crash tore the last WAL frame mid-write.
TEST_F(SnapshotRecoveryTest, TailReplayAfterCompaction) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  const std::vector<std::string> lines = workload(30);
  const std::string reference =
      reference_metrics(topo, allocator, config, lines, {21});

  DaemonOptions wal_options;
  wal_options.wal_path = wal_path_;
  {
    ServiceDaemon daemon(topo, allocator, config, wal_options);
    std::string error;
    ASSERT_TRUE(daemon.init(&error)) << error;
    for (std::size_t k = 0; k < 20; ++k) {
      ASSERT_TRUE(is_ok(daemon.handle_line(lines[k])));
    }
    const std::string snap = daemon.handle_line("{\"op\":\"snapshot\"}");
    ASSERT_TRUE(is_ok(snap)) << snap;
    EXPECT_NE(snap.find("\"epoch\":1"), std::string::npos) << snap;
    EXPECT_EQ(daemon.snapshots_taken(), 1u);
    for (std::size_t k = 20; k < 30; ++k) {
      ASSERT_TRUE(is_ok(daemon.handle_line(lines[k])));
    }
    ASSERT_TRUE(
        is_ok(daemon.handle_line("{\"op\":\"cancel\",\"job\":21}")));
    ASSERT_TRUE(is_ok(daemon.handle_line("{\"op\":\"drain\"}")));
  }  // crash

  // Tear the last frame of the current segment, as a kill -9 mid-append
  // would: recovery must drop the torn bytes and still audit clean.
  const std::string segment = read_file(wal_path_);
  ASSERT_GT(segment.size(), 8u);
  write_file(wal_path_, segment.substr(0, segment.size() - 3));

  DaemonOptions recover_options = wal_options;
  recover_options.recover = true;
  ServiceDaemon daemon(topo, allocator, config, recover_options);
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;
  const RecoveryReport& report = daemon.recovery();
  EXPECT_TRUE(report.performed);
  EXPECT_TRUE(report.audit_ok);
  EXPECT_TRUE(report.used_snapshot);
  EXPECT_FALSE(report.snapshot_fallback);
  EXPECT_EQ(report.snapshot_epoch, 1u);
  // Only the post-snapshot inputs replay: 10 submits + cancel + drain.
  EXPECT_EQ(report.inputs_replayed, 12u);
  EXPECT_LT(report.tail_records, report.records);
  EXPECT_GT(report.dropped_bytes, 0u);
  EXPECT_TRUE(daemon.drained());
  EXPECT_EQ(scrub_wall_fields(
                metrics_text(daemon.handle_line("{\"op\":\"drain\"}"))),
            reference);
}

// Property test over the fallback chain: whatever seeded damage the
// newest snapshot takes — truncation, a bit flip anywhere in the file,
// or deletion — recovery falls back to the previous generation (snapshot
// epoch-1 plus the rotated-out .prev segment) and the drained metrics
// never change.
TEST_F(SnapshotRecoveryTest, CorruptNewestSnapshotFallsBack) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  const std::vector<std::string> lines = workload(26);
  const std::string reference =
      reference_metrics(topo, allocator, config, lines, {14});

  DaemonOptions wal_options;
  wal_options.wal_path = wal_path_;
  {
    ServiceDaemon daemon(topo, allocator, config, wal_options);
    std::string error;
    ASSERT_TRUE(daemon.init(&error)) << error;
    for (std::size_t k = 0; k < 12; ++k) {
      ASSERT_TRUE(is_ok(daemon.handle_line(lines[k])));
    }
    ASSERT_TRUE(is_ok(daemon.handle_line("{\"op\":\"snapshot\"}")));
    for (std::size_t k = 12; k < 20; ++k) {
      ASSERT_TRUE(is_ok(daemon.handle_line(lines[k])));
    }
    ASSERT_TRUE(is_ok(daemon.handle_line("{\"op\":\"snapshot\"}")));
    for (std::size_t k = 20; k < 26; ++k) {
      ASSERT_TRUE(is_ok(daemon.handle_line(lines[k])));
    }
    ASSERT_TRUE(
        is_ok(daemon.handle_line("{\"op\":\"cancel\",\"job\":14}")));
    ASSERT_TRUE(is_ok(daemon.handle_line("{\"op\":\"drain\"}")));
  }  // crash with two snapshot generations on disk

  const std::string snap2_path = snapshot_path(wal_path_, 2);
  const std::string pristine_wal = read_file(wal_path_);
  const std::string pristine_prev = read_file(wal_path_ + ".prev");
  const std::string pristine_snap1 = read_file(snapshot_path(wal_path_, 1));
  const std::string pristine_snap2 = read_file(snap2_path);
  ASSERT_FALSE(pristine_prev.empty());
  ASSERT_FALSE(pristine_snap1.empty());
  ASSERT_FALSE(pristine_snap2.empty());

  DaemonOptions recover_options = wal_options;
  recover_options.recover = true;
  Rng rng(0xFA11BACCULL);
  for (int trial = 0; trial < 200; ++trial) {
    write_file(wal_path_, pristine_wal);
    write_file(wal_path_ + ".prev", pristine_prev);
    write_file(snapshot_path(wal_path_, 1), pristine_snap1);
    switch (trial % 3) {
      case 0: {  // truncate (strictly shorter, possibly to zero)
        const std::size_t cut = static_cast<std::size_t>(
            rng.uniform(0.0, static_cast<double>(pristine_snap2.size())));
        write_file(snap2_path, pristine_snap2.substr(0, cut));
        break;
      }
      case 1: {  // flip one bit anywhere
        std::string damaged = pristine_snap2;
        const std::size_t at = static_cast<std::size_t>(rng.uniform(
            0.0, static_cast<double>(damaged.size()) - 0.001));
        const int bit = static_cast<int>(rng.uniform(0.0, 7.999));
        damaged[at] = static_cast<char>(damaged[at] ^ (1 << bit));
        write_file(snap2_path, damaged);
        break;
      }
      default:  // the file vanished entirely
        std::remove(snap2_path.c_str());
        break;
    }

    ServiceDaemon daemon(topo, allocator, config, recover_options);
    std::string error;
    ASSERT_TRUE(daemon.init(&error)) << "trial " << trial << ": " << error;
    const RecoveryReport& report = daemon.recovery();
    EXPECT_TRUE(report.audit_ok) << "trial " << trial;
    EXPECT_TRUE(report.snapshot_fallback) << "trial " << trial;
    EXPECT_TRUE(report.used_snapshot) << "trial " << trial;
    EXPECT_EQ(report.snapshot_epoch, 1u) << "trial " << trial;
    ASSERT_EQ(scrub_wall_fields(
                  metrics_text(daemon.handle_line("{\"op\":\"drain\"}"))),
              reference)
        << "trial " << trial;
  }
}

// Single compaction, so .prev holds the full uncompacted history: losing
// the only snapshot degrades to a full replay of both segments — slower,
// never wrong.
TEST_F(SnapshotRecoveryTest, LostOnlySnapshotReplaysFullHistory) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  const std::vector<std::string> lines = workload(18);
  const std::string reference =
      reference_metrics(topo, allocator, config, lines, {});

  DaemonOptions wal_options;
  wal_options.wal_path = wal_path_;
  {
    ServiceDaemon daemon(topo, allocator, config, wal_options);
    std::string error;
    ASSERT_TRUE(daemon.init(&error)) << error;
    for (std::size_t k = 0; k < 12; ++k) {
      ASSERT_TRUE(is_ok(daemon.handle_line(lines[k])));
    }
    ASSERT_TRUE(is_ok(daemon.handle_line("{\"op\":\"snapshot\"}")));
    for (std::size_t k = 12; k < 18; ++k) {
      ASSERT_TRUE(is_ok(daemon.handle_line(lines[k])));
    }
    ASSERT_TRUE(is_ok(daemon.handle_line("{\"op\":\"drain\"}")));
  }
  std::remove(snapshot_path(wal_path_, 1).c_str());

  DaemonOptions recover_options = wal_options;
  recover_options.recover = true;
  ServiceDaemon daemon(topo, allocator, config, recover_options);
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;
  const RecoveryReport& report = daemon.recovery();
  EXPECT_TRUE(report.audit_ok);
  EXPECT_TRUE(report.snapshot_fallback);
  EXPECT_FALSE(report.used_snapshot);  // scratch replay of both segments
  EXPECT_EQ(scrub_wall_fields(
                metrics_text(daemon.handle_line("{\"op\":\"drain\"}"))),
            reference);
}

// Both retained generations unusable: recovery must refuse loudly, not
// serve from a partial state.
TEST_F(SnapshotRecoveryTest, BothGenerationsLostIsAHardError) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  const std::vector<std::string> lines = workload(20);

  DaemonOptions wal_options;
  wal_options.wal_path = wal_path_;
  {
    ServiceDaemon daemon(topo, allocator, config, wal_options);
    std::string error;
    ASSERT_TRUE(daemon.init(&error)) << error;
    for (std::size_t k = 0; k < 8; ++k) {
      ASSERT_TRUE(is_ok(daemon.handle_line(lines[k])));
    }
    ASSERT_TRUE(is_ok(daemon.handle_line("{\"op\":\"snapshot\"}")));
    for (std::size_t k = 8; k < 14; ++k) {
      ASSERT_TRUE(is_ok(daemon.handle_line(lines[k])));
    }
    ASSERT_TRUE(is_ok(daemon.handle_line("{\"op\":\"snapshot\"}")));
    for (std::size_t k = 14; k < 20; ++k) {
      ASSERT_TRUE(is_ok(daemon.handle_line(lines[k])));
    }
  }
  std::remove(snapshot_path(wal_path_, 1).c_str());
  std::remove(snapshot_path(wal_path_, 2).c_str());

  DaemonOptions recover_options = wal_options;
  recover_options.recover = true;
  ServiceDaemon daemon(topo, allocator, config, recover_options);
  std::string error;
  EXPECT_FALSE(daemon.init(&error));
  EXPECT_NE(error.find("both unusable"), std::string::npos) << error;
}

// Automatic cadence: --snapshot-every compacts on its own and retires
// epoch-2 snapshots (two-generation retention), and recovery restores
// the newest epoch.
TEST_F(SnapshotRecoveryTest, SnapshotEveryCompactsAndRetires) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  const std::vector<std::string> lines = workload(25);
  const std::string reference =
      reference_metrics(topo, allocator, config, lines, {});

  DaemonOptions wal_options;
  wal_options.wal_path = wal_path_;
  wal_options.snapshot_every = 8;
  {
    ServiceDaemon daemon(topo, allocator, config, wal_options);
    std::string error;
    ASSERT_TRUE(daemon.init(&error)) << error;
    for (const std::string& line : lines) {
      ASSERT_TRUE(is_ok(daemon.handle_line(line)));
    }
    // 25 accepted inputs at a cadence of 8 -> epochs 1, 2, 3.
    EXPECT_EQ(daemon.snapshots_taken(), 3u);
    EXPECT_EQ(daemon.snapshot_epoch(), 3u);
    ASSERT_TRUE(is_ok(daemon.handle_line("{\"op\":\"drain\"}")));
  }
  SnapshotData probe;
  std::string error;
  EXPECT_EQ(read_snapshot_file(snapshot_path(wal_path_, 1), &probe, &error),
            SnapshotReadStatus::kMissing);  // retired by epoch 3
  EXPECT_EQ(read_snapshot_file(snapshot_path(wal_path_, 3), &probe, &error),
            SnapshotReadStatus::kOk);

  DaemonOptions recover_options = wal_options;
  recover_options.recover = true;
  ServiceDaemon daemon(topo, allocator, config, recover_options);
  ASSERT_TRUE(daemon.init(&error)) << error;
  EXPECT_TRUE(daemon.recovery().used_snapshot);
  EXPECT_EQ(daemon.recovery().snapshot_epoch, 3u);
  EXPECT_EQ(scrub_wall_fields(
                metrics_text(daemon.handle_line("{\"op\":\"drain\"}"))),
            reference);
}

// A rotation that cannot move the segment to <wal>.prev (here a non-empty
// directory squats on the name) must leave the daemon logging: every
// acked input has its WAL record, and recovery replays all of them.
TEST_F(SnapshotRecoveryTest, FailedRotationKeepsTheWalLogging) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  squat_prev();

  DaemonOptions wal_options;
  wal_options.wal_path = wal_path_;
  wal_options.snapshot_every = 1;
  const std::vector<std::string> lines = workload(3);
  {
    ServiceDaemon daemon(topo, allocator, config, wal_options);
    std::string error;
    ASSERT_TRUE(daemon.init(&error)) << error;
    for (const std::string& line : lines) {
      ASSERT_TRUE(is_ok(daemon.handle_line(line)));
    }
    EXPECT_EQ(daemon.snapshots_taken(), 0u);
    const std::string stats = daemon.handle_line("{\"op\":\"stats\"}");
    EXPECT_NE(stats.find("\"wal_syncs\":"), std::string::npos) << stats;
  }
  EXPECT_EQ(logged_submits(wal_path_), lines.size());

  ASSERT_TRUE(free_prev());
  DaemonOptions recover_options = wal_options;
  recover_options.recover = true;
  ServiceDaemon daemon(topo, allocator, config, recover_options);
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;
  EXPECT_EQ(daemon.recovery().inputs_replayed, lines.size());
}

// The snapshot op reports the failed rotation; the daemon goes on acking
// and logging inputs on the segment it could not retire, and once the
// name is free the next snapshot rotates as usual and recovery replays
// only the tail behind its marker.
TEST_F(SnapshotRecoveryTest, SnapshotOpReportsAFailedRotation) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  const std::vector<std::string> lines = workload(4);
  squat_prev();
  DaemonOptions wal_options;
  wal_options.wal_path = wal_path_;
  ServiceDaemon daemon(topo, allocator, config, wal_options);
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;
  for (const std::string& line : lines) {
    const std::string snap = daemon.handle_line("{\"op\":\"snapshot\"}");
    EXPECT_TRUE(has_error(snap, "internal")) << snap;
    EXPECT_NE(snap.find("cannot rotate WAL"), std::string::npos) << snap;
    ASSERT_TRUE(is_ok(daemon.handle_line(line)));
  }
  EXPECT_EQ(daemon.snapshot_epoch(), 0u);
  const std::string stats = daemon.handle_line("{\"op\":\"stats\"}");
  EXPECT_NE(stats.find("\"inputs_since_snapshot\":4"), std::string::npos)
      << stats;
  const WalReadResult log = read_wal(wal_path_);
  EXPECT_EQ(log.records.size(), lines.size());
  EXPECT_EQ(logged_submits(wal_path_), lines.size());
}

/// Counts the trace events that carry one name.
struct EventCounter : obs::TraceSink {
  explicit EventCounter(std::string counted) : name(std::move(counted)) {}
  void emit(const obs::TraceEvent& event) override {
    count += event.name == name ? 1 : 0;
  }
  std::string name;
  int count = 0;
};

// After a failed automatic snapshot the daemon retries once another
// snapshot_every inputs have arrived, not on every input: 60 submits at a
// cadence of 5 make 12 attempts, each one WAL fsync on top of the
// submits' 60. inputs_since_snapshot still counts from the last success,
// and once the name is free the next due attempt rotates.
TEST_F(SnapshotRecoveryTest, FailedAutomaticSnapshotBacksOff) {
  const FatTree topo = FatTree::from_radix(4);
  EventCounter failures("service.snapshot_failed");
  SimConfig config;
  config.obs.sink = &failures;
  JigsawAllocator allocator;
  const std::vector<std::string> lines = workload(65);
  squat_prev();
  DaemonOptions wal_options;
  wal_options.wal_path = wal_path_;
  wal_options.snapshot_every = 5;
  ServiceDaemon daemon(topo, allocator, config, wal_options);
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;
  for (std::size_t k = 0; k < 60; ++k) {
    ASSERT_TRUE(is_ok(daemon.handle_line(lines[k])));
  }
  EXPECT_EQ(failures.count, 12);
  const std::string stats = daemon.handle_line("{\"op\":\"stats\"}");
  EXPECT_NE(stats.find("\"wal_syncs\":72,"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"inputs_since_snapshot\":60,"), std::string::npos)
      << stats;

  ASSERT_TRUE(free_prev());
  for (std::size_t k = 60; k < 64; ++k) {
    ASSERT_TRUE(is_ok(daemon.handle_line(lines[k])));
  }
  EXPECT_EQ(daemon.snapshots_taken(), 0u);
  ASSERT_TRUE(is_ok(daemon.handle_line(lines[64])));
  EXPECT_EQ(daemon.snapshots_taken(), 1u);
  EXPECT_EQ(failures.count, 12);
}

// Once the name is free again the next snapshot rotates as usual, and
// recovery replays only the tail behind its marker.
TEST_F(SnapshotRecoveryTest, RotationSucceedsOnceThePathIsFree) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  const std::vector<std::string> lines = workload(12);
  const std::string reference =
      reference_metrics(topo, allocator, config, lines, {});
  squat_prev();
  DaemonOptions wal_options;
  wal_options.wal_path = wal_path_;
  {
    ServiceDaemon daemon(topo, allocator, config, wal_options);
    std::string error;
    ASSERT_TRUE(daemon.init(&error)) << error;
    for (std::size_t k = 0; k < lines.size(); ++k) {
      if (k == 6) {
        EXPECT_TRUE(has_error(daemon.handle_line("{\"op\":\"snapshot\"}"),
                              "internal"));
        ASSERT_TRUE(free_prev());
        const std::string snap =
            daemon.handle_line("{\"op\":\"snapshot\"}");
        EXPECT_NE(snap.find("\"epoch\":1"), std::string::npos) << snap;
      }
      ASSERT_TRUE(is_ok(daemon.handle_line(lines[k])));
    }
  }  // crash
  EXPECT_EQ(logged_submits(wal_path_ + ".prev"), 6u);

  DaemonOptions recover_options = wal_options;
  recover_options.recover = true;
  ServiceDaemon daemon(topo, allocator, config, recover_options);
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;
  EXPECT_TRUE(daemon.recovery().audit_ok);
  EXPECT_EQ(daemon.recovery().snapshot_epoch, 1u);
  EXPECT_EQ(daemon.recovery().inputs_replayed, lines.size() - 6);
  EXPECT_EQ(scrub_wall_fields(
                metrics_text(daemon.handle_line("{\"op\":\"drain\"}"))),
            reference);
}

}  // namespace
}  // namespace jigsaw::service
