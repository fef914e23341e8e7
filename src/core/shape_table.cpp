#include "core/shape_table.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <type_traits>

#include "service/wal.hpp"  // crc32
#include "util/binio.hpp"

namespace jigsaw {

namespace {

constexpr char kMagic[8] = {'J', 'G', 'S', 'W', 'S', 'H', 'T', '1'};
/// Version 3 holds the indexes and pools only. Versions 1 and 2 (which
/// appended per-size probe permutations) are refused.
constexpr std::uint32_t kVersion = 3;
/// magic + version + m1..m3 + reserved + crc + payload length.
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 6 * 4 + 8;

/// The header after the magic.
struct Header {
  std::uint32_t version = kVersion;
  std::uint32_t m1 = 0;
  std::uint32_t m2 = 0;
  std::uint32_t m3 = 0;
  std::uint32_t reserved = 0;  // keeps the payload 8-aligned at offset 40
  std::uint32_t crc = 0;       // of the payload
  std::uint64_t payload_bytes = 0;
};

constexpr auto header_fields = [](auto& io, auto& h) {
  io.u32(h.version);
  io.u32(h.m1);
  io.u32(h.m2);
  io.u32(h.m3);
  io.u32(h.reserved);
  io.u32(h.crc);
  io.u64(h.payload_bytes);
};

// Zero-copy contract: a record in the file is the in-memory struct image.
static_assert(sizeof(TwoLevelShape) == 12 && alignof(TwoLevelShape) == 4);
static_assert(sizeof(ThreeLevelShape) == 20 && alignof(ThreeLevelShape) == 4);
static_assert(std::is_trivially_copyable_v<TwoLevelShape>);
static_assert(std::is_trivially_copyable_v<ThreeLevelShape>);

bool host_can_zero_copy() {
  return std::endian::native == std::endian::little;
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// CRC of the payload of a `size`-byte mapping at `map`, read one window
/// at a time. Each window's pages are dropped from the process once
/// checked: they stay in the page cache, and only the ones a lookup
/// later reads fault back in, so a loaded table does not keep the whole
/// file resident (7.3 MB at k=48).
std::uint32_t crc_and_release(void* map, std::size_t size) {
  constexpr std::size_t kWindow = 256 * 1024;  // a multiple of any page
  char* base = static_cast<char*>(map);
  std::uint32_t crc = 0;
  for (std::size_t at = 0; at < size; at += kWindow) {
    const std::size_t end = std::min(size, at + kWindow);
    const std::size_t from = std::max(at, kHeaderBytes);
    if (from < end) crc = service::crc32(base + from, end - from, crc);
    ::madvise(base + at, end - at, MADV_DONTNEED);
  }
  return crc;
}

}  // namespace

std::string ShapeTable::serialize(const FatTree& topo) {
  const int total = topo.total_nodes();
  std::vector<std::uint64_t> idx2, idx3;
  idx2.reserve(static_cast<std::size_t>(total) + 1);
  idx3.reserve(static_cast<std::size_t>(total) + 1);
  std::vector<TwoLevelShape> pool2;
  std::vector<ThreeLevelShape> pool3;
  idx2.push_back(0);
  idx3.push_back(0);
  for (int n = 1; n <= total; ++n) {
    // The pools ARE the runtime enumerators' output — element-for-element
    // identity with the fallback path holds by construction.
    const auto two = two_level_shapes(n, topo);
    pool2.insert(pool2.end(), two.begin(), two.end());
    idx2.push_back(pool2.size());
    const auto three = three_level_shapes(n, topo, /*restrict=*/true);
    pool3.insert(pool3.end(), three.begin(), three.end());
    idx3.push_back(pool3.size());
  }

  std::string payload;
  payload.reserve(16 * idx2.size() + 12 * pool2.size() + 20 * pool3.size());
  BufWriter w(payload);
  for (const std::uint64_t v : idx2) w.u64(v);
  for (const std::uint64_t v : idx3) w.u64(v);
  for (const TwoLevelShape& s : pool2) {
    w.u32(static_cast<std::uint32_t>(s.full_leaves));
    w.u32(static_cast<std::uint32_t>(s.nodes_per_leaf));
    w.u32(static_cast<std::uint32_t>(s.remainder));
  }
  for (const ThreeLevelShape& s : pool3) {
    w.u32(static_cast<std::uint32_t>(s.full_trees));
    w.u32(static_cast<std::uint32_t>(s.leaves_per_tree));
    w.u32(static_cast<std::uint32_t>(s.nodes_per_leaf));
    w.u32(static_cast<std::uint32_t>(s.rem_full_leaves));
    w.u32(static_cast<std::uint32_t>(s.rem_leaf_nodes));
  }

  Header header;
  header.m1 = static_cast<std::uint32_t>(topo.nodes_per_leaf());
  header.m2 = static_cast<std::uint32_t>(topo.leaves_per_tree());
  header.m3 = static_cast<std::uint32_t>(topo.trees());
  header.crc = service::crc32(payload.data(), payload.size());
  header.payload_bytes = payload.size();
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  out.append(kMagic, sizeof(kMagic));
  BufWriter h(out);
  header_fields(h, header);
  out.append(payload);
  return out;
}

std::shared_ptr<const ShapeTable> ShapeTable::load(const std::string& path,
                                                   std::string* error) {
  auto report = [&](const std::string& message)
      -> std::shared_ptr<const ShapeTable> {
    fail(error, "shape table " + path + ": " + message);
    return nullptr;
  };
  if (!host_can_zero_copy()) return report("big-endian host (unsupported)");

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return report(std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    return report(std::strerror(saved));
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size < kHeaderBytes) {
    ::close(fd);
    return report("truncated header");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) return report("mmap failed");

  // Table object first so every early return unmaps via the destructor.
  auto table = std::shared_ptr<ShapeTable>(new ShapeTable());
  table->path_ = path;
  table->map_ = map;
  table->map_bytes_ = size;

  const char* base = static_cast<const char*>(map);
  if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0) {
    return report("bad magic");
  }
  Header header;
  BufReader r(std::string_view(base + sizeof(kMagic),
                               kHeaderBytes - sizeof(kMagic)));
  header_fields(r, header);
  const auto [version, m1, m2, m3, reserved, crc, payload_bytes] = header;
  if (version != kVersion) {
    return report("version " + std::to_string(version) + " (want " +
                  std::to_string(kVersion) + ")");
  }
  if (m1 < 1 || m1 > 64 || m2 < 1 || m2 > 64 || m3 < 1 || m3 > 64) {
    return report("topology parameters out of range");
  }
  if (payload_bytes != size - kHeaderBytes) {
    return report("payload length mismatch");
  }
  const char* payload = base + kHeaderBytes;
  if (crc_and_release(map, size) != crc) return report("CRC mismatch");

  const std::uint64_t total =
      static_cast<std::uint64_t>(m1) * m2 * m3;
  const std::uint64_t index_bytes = 2 * 8 * (total + 1);
  if (payload_bytes < index_bytes) return report("truncated index");
  const auto* idx2 = reinterpret_cast<const std::uint64_t*>(payload);
  const auto* idx3 = idx2 + (total + 1);
  for (std::uint64_t n = 0; n < total; ++n) {
    if (idx2[n] > idx2[n + 1] || idx3[n] > idx3[n + 1]) {
      return report("non-monotone index");
    }
  }
  const std::uint64_t c2 = idx2[total];
  const std::uint64_t c3 = idx3[total];
  // The counts come from the file: bound them before multiplying, or a
  // huge count wraps the sum back to a plausible length.
  if (c2 > payload_bytes || c3 > payload_bytes ||
      payload_bytes != index_bytes + 12 * c2 + 20 * c3) {
    return report("pool length mismatch");
  }
  const char* pool2 = payload + index_bytes;
  const char* pool3 = pool2 + 12 * c2;
  if (reinterpret_cast<std::uintptr_t>(pool2) % alignof(TwoLevelShape) != 0 ||
      reinterpret_cast<std::uintptr_t>(pool3) % alignof(ThreeLevelShape) !=
          0) {
    return report("misaligned pool");
  }
  table->m1_ = static_cast<int>(m1);
  table->m2_ = static_cast<int>(m2);
  table->m3_ = static_cast<int>(m3);
  table->total_nodes_ = static_cast<int>(total);
  table->idx2_ = idx2;
  table->idx3_ = idx3;
  table->pool2_ = reinterpret_cast<const TwoLevelShape*>(pool2);
  table->pool3_ = reinterpret_cast<const ThreeLevelShape*>(pool3);
  return table;
}

ShapeTable::~ShapeTable() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
}

std::span<const TwoLevelShape> ShapeTable::two_level(int size) const {
  const auto n = static_cast<std::size_t>(size);
  return {pool2_ + idx2_[n - 1],
          static_cast<std::size_t>(idx2_[n] - idx2_[n - 1])};
}

std::span<const ThreeLevelShape> ShapeTable::three_level_restricted(
    int size) const {
  const auto n = static_cast<std::size_t>(size);
  return {pool3_ + idx3_[n - 1],
          static_cast<std::size_t>(idx3_[n] - idx3_[n - 1])};
}

// ---- registry + serve counters ---------------------------------------

namespace {

std::mutex g_tables_mu;
std::vector<std::shared_ptr<const ShapeTable>>& tables_locked() {
  static std::vector<std::shared_ptr<const ShapeTable>> tables;
  return tables;
}

/// Bumped (release) on every install/clear; lets find_shape_table keep a
/// per-thread memo of its last lookup — positive or negative — so the
/// hot path (one lookup per shape sequence served) is two loads and a
/// compare instead of a mutex acquisition.
std::atomic<std::uint64_t> g_registry_version{1};

std::atomic<std::uint64_t> g_two_table{0}, g_two_runtime{0};
std::atomic<std::uint64_t> g_three_table{0}, g_three_runtime{0};
std::atomic<std::uint64_t> g_three_general{0};

void bump(std::atomic<std::uint64_t>& c) {
  c.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void install_shape_table(std::shared_ptr<const ShapeTable> table) {
  if (table == nullptr) return;
  std::lock_guard<std::mutex> lock(g_tables_mu);
  auto& tables = tables_locked();
  // One table per topology: a re-install replaces the previous one.
  std::erase_if(tables, [&](const auto& t) {
    return t->m1() == table->m1() && t->m2() == table->m2() &&
           t->m3() == table->m3();
  });
  tables.push_back(std::move(table));
  g_registry_version.fetch_add(1, std::memory_order_release);
}

std::shared_ptr<const ShapeTable> find_shape_table(const FatTree& topo) {
  // Per-thread memo of the last lookup (including a miss): schedulers
  // ask for shape sequences thousands of times per pass on one fixed
  // topology, and a mutex per request would eat the table's win on
  // small radixes. The memoized shared_ptr keeps the mapping alive even
  // if another thread clears the registry concurrently.
  struct Memo {
    std::uint64_t version = 0;
    int m1 = 0, m2 = 0, m3 = 0;
    std::shared_ptr<const ShapeTable> table;
  };
  thread_local Memo memo;
  const std::uint64_t version =
      g_registry_version.load(std::memory_order_acquire);
  if (memo.version == version && memo.m1 == topo.nodes_per_leaf() &&
      memo.m2 == topo.leaves_per_tree() && memo.m3 == topo.trees()) {
    return memo.table;
  }
  std::shared_ptr<const ShapeTable> found;
  {
    std::lock_guard<std::mutex> lock(g_tables_mu);
    for (const auto& t : tables_locked()) {
      if (t->matches(topo)) {
        found = t;
        break;
      }
    }
  }
  memo = Memo{version, topo.nodes_per_leaf(), topo.leaves_per_tree(),
              topo.trees(), found};
  return found;
}

void clear_shape_tables() {
  std::lock_guard<std::mutex> lock(g_tables_mu);
  tables_locked().clear();
  g_registry_version.fetch_add(1, std::memory_order_release);
}

std::size_t installed_shape_table_count() {
  std::lock_guard<std::mutex> lock(g_tables_mu);
  return tables_locked().size();
}

std::size_t install_shape_tables(const std::string& paths,
                                 std::string* error) {
  std::size_t installed = 0;
  std::size_t begin = 0;
  while (begin <= paths.size()) {
    const std::size_t end = std::min(paths.find(':', begin), paths.size());
    const std::string path = paths.substr(begin, end - begin);
    begin = end + 1;
    if (path.empty()) continue;
    auto table = ShapeTable::load(path, error);
    if (table == nullptr) return installed;
    install_shape_table(std::move(table));
    ++installed;
  }
  return installed;
}

std::size_t install_shape_tables_from_env(std::string* error) {
  const char* env = std::getenv("JIGSAW_SHAPE_TABLE");
  if (env == nullptr || *env == '\0') return 0;
  return install_shape_tables(env, error);
}

ShapeServeCounters shape_serve_counters() {
  ShapeServeCounters c;
  c.two_level_table = g_two_table.load(std::memory_order_relaxed);
  c.two_level_runtime = g_two_runtime.load(std::memory_order_relaxed);
  c.three_level_table = g_three_table.load(std::memory_order_relaxed);
  c.three_level_runtime = g_three_runtime.load(std::memory_order_relaxed);
  c.three_level_general_runtime =
      g_three_general.load(std::memory_order_relaxed);
  return c;
}

void reset_shape_serve_counters() {
  g_two_table.store(0, std::memory_order_relaxed);
  g_two_runtime.store(0, std::memory_order_relaxed);
  g_three_table.store(0, std::memory_order_relaxed);
  g_three_runtime.store(0, std::memory_order_relaxed);
  g_three_general.store(0, std::memory_order_relaxed);
}

// ---- serving API ------------------------------------------------------

ShapeSeq<TwoLevelShape> two_level_shape_seq(int size, const FatTree& topo) {
  if (size >= 1) {
    if (auto table = find_shape_table(topo);
        table != nullptr && size <= table->total_nodes()) {
      bump(g_two_table);
      auto view = table->two_level(size);
      return {view, std::move(table)};
    }
  }
  bump(g_two_runtime);
  return ShapeSeq<TwoLevelShape>(two_level_shapes(size, topo));
}

ShapeSeq<ThreeLevelShape> three_level_shape_seq(int size, const FatTree& topo,
                                                bool restrict_full_leaves) {
  if (!restrict_full_leaves) {
    // The general (every-nL) family is runtime-only by design; tabling it
    // would cost O(m1*m2) records per size (see the header comment).
    bump(g_three_general);
    return ShapeSeq<ThreeLevelShape>(
        three_level_shapes(size, topo, false));
  }
  if (size >= 1) {
    if (auto table = find_shape_table(topo);
        table != nullptr && size <= table->total_nodes()) {
      bump(g_three_table);
      auto view = table->three_level_restricted(size);
      return {view, std::move(table)};
    }
  }
  bump(g_three_runtime);
  return ShapeSeq<ThreeLevelShape>(three_level_shapes(size, topo, true));
}

}  // namespace jigsaw
