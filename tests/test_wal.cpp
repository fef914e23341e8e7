// Write-ahead log framing: round-trip, longest-valid-prefix recovery
// under random truncation and bit flips, and recovery idempotence.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "service/wal.hpp"
#include "util/rng.hpp"

namespace jigsaw::service {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // PID + test name: ctest runs each test in its own process, so an
    // address-based suffix would collide across parallel workers.
    path_ = ::testing::TempDir() + "wal_test_" +
            std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".wal";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string read_file() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  void write_file(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Append `n` records with deterministic payloads; returns them.
  std::vector<WalRecord> append_records(std::size_t n) {
    WalWriter writer;
    std::string error;
    EXPECT_TRUE(writer.open(path_, &error)) << error;
    std::vector<WalRecord> written;
    for (std::size_t k = 0; k < n; ++k) {
      WalRecord rec;
      rec.type = static_cast<WalRecordType>(1 + k % 6);
      rec.payload = "{\"k\":" + std::to_string(k) + ",\"pad\":\"" +
                    std::string(k % 37, 'x') + "\"}";
      EXPECT_TRUE(writer.append(rec.type, rec.payload, &error)) << error;
      written.push_back(std::move(rec));
    }
    EXPECT_TRUE(writer.sync(&error)) << error;
    return written;
  }

  std::string path_;
};

TEST_F(WalTest, MissingFileReadsEmpty) {
  const WalReadResult result = read_wal(path_ + ".absent");
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.valid_bytes, 0u);
  EXPECT_EQ(result.file_bytes, 0u);
  EXPECT_FALSE(result.header_ok);
  EXPECT_TRUE(result.tail_error.empty());
}

TEST_F(WalTest, EmptyLogHasHeaderOnly) {
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open(path_, &error)) << error;
  writer.close();
  const WalReadResult result = read_wal(path_);
  EXPECT_TRUE(result.header_ok);
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.valid_bytes, 8u);
  EXPECT_EQ(result.file_bytes, 8u);
}

TEST_F(WalTest, RoundTrip) {
  const std::vector<WalRecord> written = append_records(25);
  const WalReadResult result = read_wal(path_);
  EXPECT_TRUE(result.header_ok);
  EXPECT_TRUE(result.tail_error.empty()) << result.tail_error;
  ASSERT_EQ(result.records.size(), written.size());
  for (std::size_t k = 0; k < written.size(); ++k) {
    EXPECT_EQ(result.records[k].type, written[k].type);
    EXPECT_EQ(result.records[k].payload, written[k].payload);
  }
  EXPECT_EQ(result.valid_bytes, result.file_bytes);
}

TEST_F(WalTest, ReopenAppends) {
  append_records(5);
  {
    WalWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path_, &error)) << error;
    ASSERT_TRUE(writer.append(WalRecordType::kDrain, "{}", &error)) << error;
  }
  const WalReadResult result = read_wal(path_);
  ASSERT_EQ(result.records.size(), 6u);
  EXPECT_EQ(result.records.back().type, WalRecordType::kDrain);
}

// A writer holds its segment, not its name: renamed while open (as a
// snapshot rotation does) it keeps appending to the renamed file, and
// reopening under the old name retires that file and starts a fresh
// segment there.
TEST_F(WalTest, RenamedSegmentKeepsAppendingAndReopenStartsFresh) {
  const std::string prev = path_ + ".prev";
  std::remove(prev.c_str());
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open(path_, &error)) << error;
  ASSERT_TRUE(writer.append(WalRecordType::kSubmit, "{\"k\":0}", &error))
      << error;
  ASSERT_EQ(std::rename(path_.c_str(), prev.c_str()), 0);
  ASSERT_TRUE(writer.append(WalRecordType::kSubmit, "{\"k\":1}", &error))
      << error;
  ASSERT_TRUE(writer.sync(&error)) << error;

  ASSERT_TRUE(writer.open(path_, &error)) << error;
  EXPECT_TRUE(writer.is_open());
  EXPECT_EQ(writer.bytes(), 8u);  // header only
  ASSERT_TRUE(writer.append(WalRecordType::kDrain, "{}", &error)) << error;
  writer.close();

  const WalReadResult retired = read_wal(prev);
  ASSERT_EQ(retired.records.size(), 2u);
  EXPECT_EQ(retired.records[1].payload, "{\"k\":1}");
  const WalReadResult fresh = read_wal(path_);
  EXPECT_TRUE(fresh.header_ok);
  ASSERT_EQ(fresh.records.size(), 1u);
  EXPECT_EQ(fresh.records[0].type, WalRecordType::kDrain);
  std::remove(prev.c_str());
}

// A writer that is not open refuses appends instead of dropping records
// silently; its sync has nothing to flush and succeeds.
TEST_F(WalTest, ClosedWriterRefusesAppends) {
  WalWriter writer;
  std::string error;
  EXPECT_FALSE(writer.is_open());
  EXPECT_FALSE(writer.append(WalRecordType::kSubmit, "{}", &error));
  EXPECT_EQ(error, "WAL not open");
  ASSERT_TRUE(writer.open(path_, &error)) << error;
  writer.close();
  EXPECT_FALSE(writer.is_open());
  error.clear();
  EXPECT_FALSE(writer.append(WalRecordType::kSubmit, "{}", &error));
  EXPECT_EQ(error, "WAL not open");
  EXPECT_TRUE(writer.sync(&error));
  EXPECT_TRUE(read_wal(path_).records.empty());
}

TEST_F(WalTest, BadMagicRejected) {
  write_file("NOTAWAL!somebytes");
  const WalReadResult result = read_wal(path_);
  EXPECT_FALSE(result.header_ok);
  EXPECT_EQ(result.valid_bytes, 0u);
  EXPECT_FALSE(result.tail_error.empty());
}

TEST_F(WalTest, UnknownTypeStopsScan) {
  append_records(3);
  std::string bytes = read_file();
  // Hand-craft a frame with type 99 after the valid records.
  const std::string payload = "{}";
  std::string frame;
  auto put32 = [&frame](std::uint32_t v) {
    for (int k = 0; k < 4; ++k)
      frame.push_back(static_cast<char>(v >> (8 * k)));
  };
  put32(static_cast<std::uint32_t>(payload.size()));
  put32(99);
  frame += payload;
  std::string crc_input;
  for (int k = 0; k < 4; ++k)
    crc_input.push_back(static_cast<char>(99u >> (8 * k)));
  crc_input += payload;
  put32(crc32(crc_input.data(), crc_input.size()));
  const std::uint64_t valid_before = bytes.size();
  write_file(bytes + frame);
  const WalReadResult result = read_wal(path_);
  EXPECT_EQ(result.records.size(), 3u);
  EXPECT_EQ(result.valid_bytes, valid_before);
  EXPECT_FALSE(result.tail_error.empty());
}

// The recovery contract, as a randomized property: however the tail is
// damaged — truncated at any byte, or any single bit flipped — read_wal
// returns exactly the records whose frames lie wholly inside the
// undamaged prefix, and recovery (truncate to valid_bytes, re-read) is
// idempotent.
TEST_F(WalTest, TruncationRecoversLongestValidPrefix) {
  const std::vector<WalRecord> written = append_records(20);
  const std::string bytes = read_file();
  const WalReadResult intact = read_wal(path_);
  ASSERT_EQ(intact.records.size(), written.size());
  // Frame boundaries: offsets[k] = end of record k's frame.
  std::vector<std::uint64_t> ends;
  for (std::size_t k = 1; k < intact.records.size(); ++k) {
    ends.push_back(intact.records[k].offset);
  }
  ends.push_back(intact.valid_bytes);

  Rng rng(0x5EEDF00DULL);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t cut = static_cast<std::size_t>(
        rng.below(bytes.size()));
    write_file(bytes.substr(0, cut));
    const WalReadResult result = read_wal(path_);
    // Expected surviving records: frames entirely within [0, cut).
    std::size_t expect = 0;
    while (expect < ends.size() && ends[expect] <= cut) ++expect;
    EXPECT_EQ(result.records.size(), expect) << "cut at " << cut;
    for (std::size_t k = 0; k < result.records.size(); ++k) {
      EXPECT_EQ(result.records[k].payload, written[k].payload);
    }
    if (cut < 8) {
      EXPECT_EQ(result.valid_bytes, 0u);
    } else {
      EXPECT_EQ(result.valid_bytes, expect == 0 ? 8u : ends[expect - 1]);
    }
    // Idempotence: cutting to valid_bytes and re-reading yields the same
    // prefix with no tail error.
    write_file(bytes.substr(0, static_cast<std::size_t>(result.valid_bytes)));
    const WalReadResult again = read_wal(path_);
    EXPECT_EQ(again.records.size(), result.records.size());
    EXPECT_EQ(again.valid_bytes, result.valid_bytes);
    EXPECT_TRUE(cut < 8 || again.tail_error.empty()) << again.tail_error;
  }
}

TEST_F(WalTest, BitFlipRecoversPrefixBeforeDamage) {
  const std::vector<WalRecord> written = append_records(20);
  const std::string bytes = read_file();
  const WalReadResult intact = read_wal(path_);
  std::vector<std::uint64_t> ends;
  for (std::size_t k = 1; k < intact.records.size(); ++k) {
    ends.push_back(intact.records[k].offset);
  }
  ends.push_back(intact.valid_bytes);

  Rng rng(0xB17F11BULL);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t at = static_cast<std::size_t>(
        rng.below(bytes.size()));
    const int bit = static_cast<int>(rng.below(8));
    std::string damaged = bytes;
    damaged[at] = static_cast<char>(damaged[at] ^ (1 << bit));
    write_file(damaged);
    const WalReadResult result = read_wal(path_);
    // Every record whose frame ends at or before the damaged byte must
    // survive intact; the damaged record itself must not (a flip in a
    // length field may also take down the scan earlier, never later).
    std::size_t unaffected = 0;
    while (unaffected < ends.size() && ends[unaffected] <= at) ++unaffected;
    EXPECT_LE(result.records.size(), written.size());
    if (at < 8) {
      // Header damage: nothing survives.
      EXPECT_EQ(result.valid_bytes, 0u);
      EXPECT_TRUE(result.records.empty());
    } else {
      EXPECT_GE(result.records.size(), unaffected) << "flip at " << at;
      // A flipped payload/crc byte must be caught: the record containing
      // the damage never appears with a wrong payload.
      for (std::size_t k = 0; k < result.records.size(); ++k) {
        EXPECT_EQ(result.records[k].payload, written[k].payload);
        EXPECT_EQ(result.records[k].type, written[k].type);
      }
    }
    // Idempotence after truncating the damage away.
    write_file(
        damaged.substr(0, static_cast<std::size_t>(result.valid_bytes)));
    const WalReadResult again = read_wal(path_);
    EXPECT_EQ(again.records.size(), result.records.size());
    EXPECT_EQ(again.valid_bytes, result.valid_bytes);
  }
}

TEST_F(WalTest, WriterTruncateDropsTornTail) {
  append_records(10);
  const std::string bytes = read_file();
  write_file(bytes.substr(0, bytes.size() - 3));  // torn final frame
  const WalReadResult torn = read_wal(path_);
  EXPECT_EQ(torn.records.size(), 9u);
  EXPECT_FALSE(torn.tail_error.empty());

  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open(path_, &error, torn.valid_bytes)) << error;
  ASSERT_TRUE(writer.append(WalRecordType::kCancel, "{\"job\":1}", &error))
      << error;
  writer.close();
  const WalReadResult result = read_wal(path_);
  EXPECT_TRUE(result.tail_error.empty()) << result.tail_error;
  ASSERT_EQ(result.records.size(), 10u);
  EXPECT_EQ(result.records.back().payload, "{\"job\":1}");
}

/// Caps the process's file size (RLIMIT_FSIZE) for its lifetime, with
/// SIGXFSZ ignored so a write past the cap fails with EFBIG instead of
/// killing the process; restores both.
class FileSizeCap {
 public:
  explicit FileSizeCap(std::uint64_t bytes) {
    previous_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    have_saved_ = ::getrlimit(RLIMIT_FSIZE, &saved_) == 0;
    rlimit capped = saved_;
    capped.rlim_cur = static_cast<rlim_t>(bytes);
    capped_ = have_saved_ && ::setrlimit(RLIMIT_FSIZE, &capped) == 0;
  }
  ~FileSizeCap() {
    if (have_saved_) ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, previous_handler_);
  }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;
  bool capped() const { return capped_; }

 private:
  rlimit saved_{};
  bool have_saved_ = false;
  bool capped_ = false;
  void (*previous_handler_)(int) = SIG_DFL;
};

// A write that fails part-way (EFBIG here, ENOSPC in the field) must not
// leave a torn frame behind: read_wal() stops at the first one, so every
// record appended after it, synced or not, would be lost to recovery.
TEST_F(WalTest, FailedAppendLeavesNoTornFrame) {
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open(path_, &error)) << error;
  ASSERT_TRUE(writer.append(WalRecordType::kSubmit, "{\"id\":0}", &error))
      << error;
  const std::uint64_t before = writer.bytes();
  bool appended = true;
  {
    // Room for 10 bytes of the next frame: the first write lands
    // part-way, the next one fails.
    FileSizeCap cap(before + 10);
    ASSERT_TRUE(cap.capped());
    appended = writer.append(WalRecordType::kSubmit,
                             "{\"id\":1,\"pad\":\"" + std::string(64, 'x') +
                                 "\"}",
                             &error);
  }
  EXPECT_FALSE(appended);
  EXPECT_EQ(writer.bytes(), before);
  EXPECT_TRUE(writer.failure().empty()) << writer.failure();

  ASSERT_TRUE(writer.append(WalRecordType::kCancel, "{\"job\":0}", &error))
      << error;
  ASSERT_TRUE(writer.sync(&error)) << error;
  const WalReadResult log = read_wal(path_);
  EXPECT_TRUE(log.tail_error.empty()) << log.tail_error;
  EXPECT_EQ(log.valid_bytes, log.file_bytes);
  ASSERT_EQ(log.records.size(), 2u);
  EXPECT_EQ(log.records[0].payload, "{\"id\":0}");
  EXPECT_EQ(log.records[1].type, WalRecordType::kCancel);
  EXPECT_EQ(log.records[1].payload, "{\"job\":0}");
}

TEST_F(WalTest, Crc32KnownVector) {
  // The IEEE CRC-32 check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

}  // namespace
}  // namespace jigsaw::service
