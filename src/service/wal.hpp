// Write-ahead log for the online scheduler service.
//
// An append-only file of CRC-framed records. The daemon logs every state
// *input* — accepted submissions, cancels, protocol-injected fail/repair
// events, the drain request — plus grant/release records for audit, so a
// crash loses at most the unsynced tail and recovery can reconstruct the
// queue, the cluster state, and every outstanding reservation by
// deterministic replay (service/daemon.hpp owns the replay; this file
// owns the framing and the record formats).
//
// On-disk format (all integers little-endian):
//
//   file header   8 bytes  "JGSWWAL2"
//   record        u32 payload_length
//                 u32 type               (WalRecordType)
//                 payload_length bytes   (the type's field list, below)
//                 u32 crc32              (IEEE, over type word + payload)
//
// Each record type is one struct below whose `fields` list
// (util/binio.hpp) both writes its payload (wal_payload) and reads it
// back (read_payload). A JGSWWAL1 file, whose payloads were JSON, is
// refused by name: no reader for it is kept.
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
#include <string_view>
#include <vector>

#include "fault/failure_schedule.hpp"
#include "trace/trace.hpp"
#include "util/binio.hpp"

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

const char* wal_record_type_name(WalRecordType type);

struct WalRecord {
  WalRecordType type = WalRecordType::kSubmit;
  /// The field-list bytes of the record struct `type` names (below).
  std::string payload;
  std::uint64_t offset = 0;   ///< frame start offset in the file
};

// The record structs. Every input record (the ones replay applies; the
// rest are audit-only derived facts) leads with `accept`, the engine
// clock at which the daemon accepted it: in wall mode that is the exact
// advance_until() bound the request was handled against, so replay
// re-advances to it before applying the input.

/// An accepted submission, with the correlation id its ack carried.
struct SubmitRecord {
  static constexpr WalRecordType kType = WalRecordType::kSubmit;
  double accept = 0.0;
  Job job;
  std::uint64_t corr = 0;
  static constexpr auto fields = [](auto& io, auto& r) {
    io.f64(r.accept);
    job_fields(io, r.job);
    io.u64(r.corr);
  };
};

struct CancelRecord {
  static constexpr WalRecordType kType = WalRecordType::kCancel;
  double accept = 0.0;
  JobId job = kNoJob;
  static constexpr auto fields = [](auto& io, auto& r) {
    io.f64(r.accept);
    io.i64(r.job);
  };
};

/// A protocol-injected fail or repair; `event.time` is when it strikes.
struct FaultRecord {
  static constexpr WalRecordType kType = WalRecordType::kFault;
  double accept = 0.0;
  fault::FaultEvent event;
  static constexpr auto fields = [](auto& io, auto& r) {
    io.f64(r.accept);
    fault::event_fields(io, r.event);
  };
};

struct DrainRecord {
  static constexpr WalRecordType kType = WalRecordType::kDrain;
  double accept = 0.0;
  static constexpr auto fields = [](auto& io, auto& r) { io.f64(r.accept); };
};

/// A granted partition, as the recovery audit compares it: `digest` is
/// the crc32 of the allocation's field list (topology/allocation.hpp).
struct GrantRecord {
  static constexpr WalRecordType kType = WalRecordType::kGrant;
  JobId job = kNoJob;
  double time = 0.0;
  int nodes = 0;
  std::uint32_t digest = 0;
  static constexpr auto fields = [](auto& io, auto& r) {
    io.i64(r.job);
    io.f64(r.time);
    io.i64(r.nodes);
    io.u32(r.digest);
  };
};

struct ReleaseRecord {
  static constexpr WalRecordType kType = WalRecordType::kRelease;
  JobId job = kNoJob;
  double time = 0.0;
  static constexpr auto fields = [](auto& io, auto& r) {
    io.i64(r.job);
    io.f64(r.time);
  };
};

/// A compacted segment's leading record: the snapshot epoch it extends.
struct SnapshotMarker {
  static constexpr WalRecordType kType = WalRecordType::kSnapshot;
  std::uint64_t epoch = 0;
  static constexpr auto fields = [](auto& io, auto& r) { io.u64(r.epoch); };
};

/// Whether replay applies Record as an input: inputs carry `accept`.
template <typename Record>
inline constexpr bool kWalInput = requires(Record r) { r.accept; };

/// `rec`'s payload: its field list's bytes.
template <typename Record>
std::string wal_payload(const Record& rec) {
  std::string out;
  BufWriter w(out);
  Record::fields(w, rec);
  return out;
}

/// Read `payload` with Record's field list. False when it is short,
/// damaged, or longer than the list.
template <typename Record>
bool read_payload(std::string_view payload, Record* rec) {
  BufReader r(payload);
  Record::fields(r, *rec);
  return r.ok() && r.remaining() == 0;
}

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
