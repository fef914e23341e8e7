// Write-ahead log for the online scheduler service.
//
// An append-only file of CRC-framed records. The daemon logs every state
// *input* — accepted submissions, cancels, protocol-injected fail/repair
// events, the drain request — plus grant/release records for audit, so a
// crash loses at most the unsynced tail and recovery can reconstruct the
// queue, the cluster state, and every outstanding reservation by
// deterministic replay (service/daemon.hpp owns the replay; this file
// owns the framing).
//
// On-disk format (all integers little-endian):
//
//   file header   8 bytes  "JGSWWAL1"
//   record        u32 payload_length
//                 u32 type               (WalRecordType)
//                 payload_length bytes   (compact JSON, service/json.hpp)
//                 u32 crc32              (IEEE, over type word + payload)
//
// read_wal() scans from the start and stops at the first violation —
// short header, truncated frame, implausible length, CRC mismatch, or a
// type outside the known range — returning every record before it and
// the byte offset where the valid prefix ends. A torn tail is therefore
// invisible after WalWriter::truncate_to(valid_bytes): recovery of a
// once-recovered log yields the same prefix (idempotence; pinned by
// tests/test_wal.cpp's random-corruption property test).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace jigsaw::service {

enum class WalRecordType : std::uint32_t {
  kSubmit = 1,   ///< accepted submission (input; replayed)
  kCancel = 2,   ///< accepted cancel (input; replayed)
  kFault = 3,    ///< protocol-injected fail/repair (input; replayed)
  kDrain = 4,    ///< drain requested (input; replayed)
  kGrant = 5,    ///< partition granted (audit: recovery cross-check)
  kRelease = 6,  ///< partition released (audit)
  /// Leading record of a compacted segment: names the snapshot epoch the
  /// segment's records extend. Recovery seeds the engine from that
  /// snapshot file and replays only the records after this marker.
  kSnapshot = 7,
};

/// True for the record types recovery replays as inputs (the rest are
/// audit-only derived facts).
bool wal_is_input(WalRecordType type);
const char* wal_record_type_name(WalRecordType type);

struct WalRecord {
  WalRecordType type = WalRecordType::kSubmit;
  std::string payload;        ///< compact JSON
  std::uint64_t offset = 0;   ///< frame start offset in the file
};

struct WalReadResult {
  std::vector<WalRecord> records;
  /// Offset one past the last valid record (== header size for a valid
  /// empty log; 0 when even the header is missing/corrupt).
  std::uint64_t valid_bytes = 0;
  std::uint64_t file_bytes = 0;
  bool header_ok = false;
  /// Nonempty when the scan stopped before end-of-file (torn tail,
  /// corruption); describes the first violation.
  std::string tail_error;
};

/// Scan the longest valid record prefix. A missing file reads as an
/// empty, headerless log (header_ok = false, valid_bytes = 0, no error
/// thrown) so first-boot and recovery share one code path.
WalReadResult read_wal(const std::string& path);

/// IEEE CRC-32 (the WAL's frame checksum; exposed for tests and for the
/// daemon's compact placement digests).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Open for appending, creating the file (and writing the header) when
  /// absent or empty. Returns false with *error set on I/O failure. When
  /// `truncate_at` is nonzero the file is first cut to that many bytes —
  /// recovery passes read_wal's valid_bytes to drop a torn tail.
  bool open(const std::string& path, std::string* error,
            std::uint64_t truncate_at = 0);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Current file size in bytes (header + every appended frame); tracked
  /// incrementally so the metrics scrape never stats the file.
  std::uint64_t bytes() const { return bytes_; }
  /// Records appended since the last successful sync(): what an OS crash
  /// right now could lose. For the daemon that is at most the inputs of
  /// the group commit in progress (none acked yet) plus the grant and
  /// release records since the last input, which recovery re-derives.
  std::uint64_t unsynced_records() const { return unsynced_records_; }

  /// Append one framed record (buffered in the kernel; see sync()). A
  /// write that fails part-way is cut back off the file, so a later
  /// record never follows a torn frame.
  bool append(WalRecordType type, const std::string& payload,
              std::string* error);

  /// fsync the file. The daemon syncs after each input a direct
  /// handle_line() call appends, and otherwise once per group commit (a
  /// reactor turn that appended an input).
  bool sync(std::string* error);

  /// Nonempty once the file can no longer be trusted to hold what was
  /// appended: an fsync failed (the kernel may already have dropped the
  /// unwritten pages), or a torn frame could not be cut off. Every later
  /// append() and sync() is then refused with this reason.
  const std::string& failure() const { return failure_; }

  void close();

 private:
  int fd_ = -1;
  std::string path_;
  std::uint64_t bytes_ = 0;
  std::uint64_t unsynced_records_ = 0;
  std::string failure_;
};

}  // namespace jigsaw::service
