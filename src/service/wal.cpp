#include "service/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <string_view>

namespace jigsaw::service {

namespace {

constexpr std::string_view kMagic = "JGSWWAL2";
constexpr std::uint64_t kHeaderBytes = kMagic.size();
/// Frames larger than this are treated as corruption, not data: every
/// real payload is under 64 bytes.
constexpr std::uint32_t kMaxPayload = 1u << 24;

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> kTable = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[n] = c;
    }
    return t;
  }();
  return kTable;
}

bool valid_type(std::uint32_t type) {
  return type >= static_cast<std::uint32_t>(WalRecordType::kSubmit) &&
         type <= static_cast<std::uint32_t>(WalRecordType::kSnapshot);
}

std::uint32_t frame_crc(std::uint32_t type, std::string_view payload) {
  std::string type_le;
  BufWriter(type_le).u32(type);
  return crc32(payload.data(), payload.size(),
               crc32(type_le.data(), type_le.size()));
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto& table = crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t k = 0; k < size; ++k) {
    c = table[(c ^ p[k]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

const char* wal_record_type_name(WalRecordType type) {
  switch (type) {
    case WalRecordType::kSubmit: return "submit";
    case WalRecordType::kCancel: return "cancel";
    case WalRecordType::kFault: return "fault";
    case WalRecordType::kDrain: return "drain";
    case WalRecordType::kGrant: return "grant";
    case WalRecordType::kRelease: return "release";
    case WalRecordType::kSnapshot: return "snapshot";
  }
  return "?";
}

WalReadResult read_wal(const std::string& path) {
  WalReadResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) return result;  // missing file == empty log
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  result.file_bytes = data.size();
  if (data.compare(0, kHeaderBytes, kMagic) != 0) {
    if (data.compare(0, kHeaderBytes, "JGSWWAL1") == 0) {
      result.tail_error = "a JGSWWAL1 log (JSON payloads), which this " +
                          std::string(kMagic) + " build does not read";
    } else if (!data.empty()) {
      result.tail_error = "bad or short file header";
    }
    return result;
  }
  result.header_ok = true;
  std::uint64_t off = kHeaderBytes;
  const std::string_view bytes = data;
  while (off < data.size()) {
    std::uint32_t len = 0;
    std::uint32_t type = 0;
    BufReader head(bytes.substr(off, 8));
    head.u32(len);
    head.u32(type);
    if (!head.ok()) {
      result.tail_error = "truncated frame header";
      break;
    }
    if (len > kMaxPayload) {
      result.tail_error = "implausible payload length";
      break;
    }
    if (!valid_type(type)) {
      result.tail_error = "unknown record type";
      break;
    }
    if (data.size() - off - 8 < static_cast<std::uint64_t>(len) + 4) {
      result.tail_error = "truncated record";
      break;
    }
    const std::string_view payload = bytes.substr(off + 8, len);
    std::uint32_t stored_crc = 0;
    BufReader(bytes.substr(off + 8 + len, 4)).u32(stored_crc);
    if (stored_crc != frame_crc(type, payload)) {
      result.tail_error = "checksum mismatch";
      break;
    }
    WalRecord record;
    record.type = static_cast<WalRecordType>(type);
    record.payload = payload;
    record.offset = off;
    result.records.push_back(std::move(record));
    off += 8 + len + 4;
  }
  result.valid_bytes = off;
  if (!result.tail_error.empty()) {
    result.tail_error += " at offset " + std::to_string(off);
  }
  return result;
}

WalWriter::~WalWriter() { close(); }

void WalWriter::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  bytes_ = 0;
  unsynced_records_ = 0;
  failure_.clear();
}

bool WalWriter::open(const std::string& path, std::string* error,
                     std::uint64_t truncate_at) {
  close();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    if (error != nullptr) {
      *error = "cannot open WAL " + path + ": " + std::strerror(errno);
    }
    return false;
  }
  path_ = path;
  if (truncate_at > 0) {
    if (::ftruncate(fd_, static_cast<off_t>(truncate_at)) != 0) {
      if (error != nullptr) {
        *error = "cannot truncate WAL: " + std::string(std::strerror(errno));
      }
      close();
      return false;
    }
  }
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    if (error != nullptr) {
      *error = "cannot stat WAL: " + std::string(std::strerror(errno));
    }
    close();
    return false;
  }
  bytes_ = static_cast<std::uint64_t>(st.st_size);
  if (st.st_size == 0) {
    if (::write(fd_, kMagic.data(), kMagic.size()) !=
        static_cast<ssize_t>(kMagic.size())) {
      if (error != nullptr) {
        *error = "cannot write WAL header: " + std::string(std::strerror(errno));
      }
      close();
      return false;
    }
    bytes_ = kHeaderBytes;
  }
  return true;
}

bool WalWriter::append(WalRecordType type, const std::string& payload,
                       std::string* error) {
  if (fd_ < 0) {
    if (error != nullptr) *error = "WAL not open";
    return false;
  }
  if (!failure_.empty()) {
    if (error != nullptr) *error = failure_;
    return false;
  }
  std::string frame;
  BufWriter w(frame);
  w.u32(payload.size());
  w.u32(static_cast<std::uint32_t>(type));
  frame += payload;
  w.u32(frame_crc(static_cast<std::uint32_t>(type), payload));
  const char* p = frame.data();
  std::size_t remaining = frame.size();
  while (remaining > 0) {
    const ssize_t n = ::write(fd_, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string what =
          "WAL write failed: " + std::string(std::strerror(errno));
      // Cut the partial frame off: read_wal() stops at a torn frame, so
      // every record appended after it would be lost to recovery.
      if (::ftruncate(fd_, static_cast<off_t>(bytes_)) != 0) {
        failure_ = what + "; cutting the torn frame off failed: " +
                   std::strerror(errno);
      }
      if (error != nullptr) *error = failure_.empty() ? what : failure_;
      return false;
    }
    p += n;
    remaining -= static_cast<std::size_t>(n);
  }
  bytes_ += frame.size();
  ++unsynced_records_;
  return true;
}

bool WalWriter::sync(std::string* error) {
  if (fd_ < 0) return true;
  if (failure_.empty() && ::fsync(fd_) != 0) {
    failure_ = "WAL fsync failed: " + std::string(std::strerror(errno));
  }
  if (!failure_.empty()) {
    if (error != nullptr) *error = failure_;
    return false;
  }
  unsynced_records_ = 0;
  return true;
}

}  // namespace jigsaw::service
