#include "service/snapshot.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>

#include "service/wal.hpp"  // crc32
#include "util/binio.hpp"

namespace jigsaw::service {

namespace {

constexpr char kMagic[8] = {'J', 'G', 'S', 'W', 'S', 'N', 'P', '1'};
constexpr std::uint32_t kVersion = 1;
/// magic + version + payload length + trailing crc.
constexpr std::size_t kFrameBytes = sizeof(kMagic) + 4 + 8 + 4;

constexpr auto corr_fields = [](auto& io, auto& entry) {
  io.i64(entry.first);   // job
  io.u64(entry.second);  // correlation id
};

/// SnapshotData's field list (util/binio.hpp): the payload.
constexpr auto payload_fields = [](auto& io, auto& data) {
  io.u64(data.epoch);
  io.str(data.clock);
  io.i64(data.next_job_id);
  io.u64(data.next_corr);
  io.seq(data.corr, corr_fields);
  io.u64(data.grants);
  io.u64(data.releases);
  io.f64(data.wall_target);
  io.flag(data.drained);
  io.str(data.engine_blob);
};

/// The frame header after the magic.
struct FrameHeader {
  std::uint32_t version = kVersion;
  std::uint64_t payload_bytes = 0;
};

constexpr auto frame_header_fields = [](auto& io, auto& h) {
  io.u32(h.version);
  io.u64(h.payload_bytes);
};

bool write_all(int fd, const char* p, std::size_t n, std::string* error) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      *error = "snapshot write failed: " + std::string(std::strerror(errno));
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// fsync the directory holding `path` so the rename itself is durable.
/// Best-effort: some filesystems refuse directory fsync; the data file
/// was already synced, so a failure here only risks replaying the
/// previous generation after a crash — which recovery handles anyway.
void sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

std::string snapshot_path(const std::string& wal_path, std::uint64_t epoch) {
  return wal_path + ".snap." + std::to_string(epoch);
}

bool write_snapshot_file(const std::string& path, const SnapshotData& data,
                         std::string* error) {
  std::string payload;
  BufWriter payload_writer(payload);
  payload_fields(payload_writer, data);
  FrameHeader header;
  header.payload_bytes = payload.size();
  std::string file;
  file.reserve(kFrameBytes + payload.size());
  file.append(kMagic, sizeof(kMagic));
  BufWriter w(file);
  frame_header_fields(w, header);
  file += payload;
  w.u32(crc32(payload.data(), payload.size()));
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    *error = "cannot create " + tmp + ": " + std::strerror(errno);
    return false;
  }
  if (!write_all(fd, file.data(), file.size(), error)) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::fsync(fd) != 0) {
    *error = "snapshot fsync failed: " + std::string(std::strerror(errno));
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    *error = "cannot rename " + tmp + ": " + std::strerror(errno);
    ::unlink(tmp.c_str());
    return false;
  }
  sync_parent_dir(path);
  return true;
}

SnapshotReadStatus read_snapshot_file(const std::string& path,
                                      SnapshotData* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) error->clear();  // missing is not an error
    return SnapshotReadStatus::kMissing;
  }
  std::string file((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (file.size() < kFrameBytes ||
      std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    *error = "bad or short snapshot header: " + path;
    return SnapshotReadStatus::kCorrupt;
  }
  FrameHeader header;
  BufReader header_reader(std::string_view(file).substr(sizeof(kMagic), 12));
  frame_header_fields(header_reader, header);
  if (header.version != kVersion) {
    *error = "unsupported snapshot version " + std::to_string(header.version) +
             ": " + path;
    return SnapshotReadStatus::kCorrupt;
  }
  if (header.payload_bytes != file.size() - kFrameBytes) {
    *error = "snapshot length mismatch: " + path;
    return SnapshotReadStatus::kCorrupt;
  }
  const std::string_view payload = std::string_view(file).substr(
      sizeof(kMagic) + 12, static_cast<std::size_t>(header.payload_bytes));
  std::uint32_t stored_crc = 0;
  BufReader tail(std::string_view(file).substr(file.size() - 4));
  tail.u32(stored_crc);
  if (stored_crc != crc32(payload.data(), payload.size())) {
    *error = "snapshot checksum mismatch: " + path;
    return SnapshotReadStatus::kCorrupt;
  }
  BufReader r(payload);
  payload_fields(r, *out);
  if (!r.ok()) {
    *error = "truncated snapshot payload: " + path;
    return SnapshotReadStatus::kCorrupt;
  }
  if (r.remaining() != 0) {
    *error = "trailing bytes in snapshot payload: " + path;
    return SnapshotReadStatus::kCorrupt;
  }
  return SnapshotReadStatus::kOk;
}

}  // namespace jigsaw::service
