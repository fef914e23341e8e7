// Precomputed shape tables: the canonical shape sequences as data.
//
// two_level_shapes()/three_level_shapes() re-derive the same candidate
// sequence arithmetically on every allocate() call — one heap-allocated
// vector per probe, millions of times per run. The sequences depend only
// on (topology, job size), so a `shape_dump` run enumerates all of them
// once into a versioned, CRC-framed binary file; the loader mmaps it and
// serves each sequence as a zero-copy std::span into the mapping.
//
// File layout (little-endian, "JGSWSHT1"):
//
//   u8[8]  magic "JGSWSHT1"
//   u32    version (= 3; any other version is refused)
//   u32    m1, m2, m3        topology the table was built for
//   u32    reserved (= 0)
//   u32    crc32 over the payload (service/wal.hpp polynomial)
//   u64    payload byte count
//   -- payload (offset 40, 8-aligned) --
//   u64    idx2[total_nodes + 1]   record-index bounds per size:
//   u64    idx3[total_nodes + 1]   list for size n = pool[idx[n-1], idx[n])
//   i32x3  pool2[idx2[total]]      TwoLevelShape records
//   i32x5  pool3[idx3[total]]      ThreeLevelShape records (whole-leaf
//                                  family, Jigsaw's §4 restriction)
//
// The record image equals the in-memory struct layout on little-endian
// targets, which is what makes the spans zero-copy; the loader refuses
// the file anywhere that doesn't hold and callers fall back to runtime
// enumeration. The general (every-nL) three-level family that only the
// least-constrained scheme enumerates is deliberately not tabled: it is
// O(m1*m2) records per size — hundreds of MB at k=64 — and stays a
// runtime enumeration (see DESIGN.md §15).
//
// Equivalence contract: serialize() builds the pools by calling the
// runtime enumerators, so a loaded table is element-for-element identical
// to runtime enumeration by construction; tests/test_shape_table.cpp
// re-verifies that at k ∈ {16, 28, 48} and fuzzes corrupt/truncated
// files against the clean-fallback guarantee.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/shapes.hpp"
#include "topology/fat_tree.hpp"

namespace jigsaw {

class ShapeTable {
 public:
  /// Serialize the full table for `topo` (every size 1..total_nodes).
  /// The pools are produced by the runtime enumerators themselves.
  static std::string serialize(const FatTree& topo);

  /// mmap `path` and validate frame, CRC and index structure. Returns
  /// null (with `error` set) on any mismatch — callers treat that as
  /// "no table" and keep the runtime enumeration path.
  static std::shared_ptr<const ShapeTable> load(const std::string& path,
                                                std::string* error);

  ~ShapeTable();
  ShapeTable(const ShapeTable&) = delete;
  ShapeTable& operator=(const ShapeTable&) = delete;

  bool matches(const FatTree& topo) const {
    return m1_ == topo.nodes_per_leaf() && m2_ == topo.leaves_per_tree() &&
           m3_ == topo.trees();
  }
  int m1() const { return m1_; }
  int m2() const { return m2_; }
  int m3() const { return m3_; }
  int total_nodes() const { return total_nodes_; }
  const std::string& path() const { return path_; }
  std::size_t bytes() const { return map_bytes_; }

  /// Two-level sequence for `size` (1 <= size <= total_nodes).
  std::span<const TwoLevelShape> two_level(int size) const;
  /// Whole-leaf three-level sequence for `size` (Jigsaw's restricted
  /// family — three_level_shapes(size, topo, true)).
  std::span<const ThreeLevelShape> three_level_restricted(int size) const;

 private:
  ShapeTable() = default;

  std::string path_;
  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  int m1_ = 0, m2_ = 0, m3_ = 0;
  int total_nodes_ = 0;
  const std::uint64_t* idx2_ = nullptr;  ///< total_nodes_ + 1 entries
  const std::uint64_t* idx3_ = nullptr;
  const TwoLevelShape* pool2_ = nullptr;
  const ThreeLevelShape* pool3_ = nullptr;
};

// ---- process-global table registry -----------------------------------
// Benches and the daemon host several topologies in one process, so the
// registry holds one table per topology; lookups match on (m1, m2, m3).

/// Register a loaded table (kept alive by the registry). Thread-safe.
void install_shape_table(std::shared_ptr<const ShapeTable> table);
/// Table matching `topo`, or null. Thread-safe.
std::shared_ptr<const ShapeTable> find_shape_table(const FatTree& topo);
/// Drop every installed table (tests; also resets nothing else).
void clear_shape_tables();
std::size_t installed_shape_table_count();

/// Load + install every table named by `paths` (colon-separated list).
/// Returns the number installed; on a load failure stops and reports it
/// in `error` (already-installed tables stay installed).
std::size_t install_shape_tables(const std::string& paths,
                                 std::string* error);
/// install_shape_tables($JIGSAW_SHAPE_TABLE); no-op when unset.
std::size_t install_shape_tables_from_env(std::string* error);

/// How shape sequences were served since the last reset (process-wide,
/// relaxed atomics). `three_level_general_runtime` counts the every-nL
/// family that is runtime-only by design.
struct ShapeServeCounters {
  std::uint64_t two_level_table = 0;
  std::uint64_t two_level_runtime = 0;
  std::uint64_t three_level_table = 0;
  std::uint64_t three_level_runtime = 0;
  std::uint64_t three_level_general_runtime = 0;
};
ShapeServeCounters shape_serve_counters();
void reset_shape_serve_counters();

// ---- serving API (what scheme code calls) ----------------------------

/// A shape sequence that is either a zero-copy view into an installed
/// table or an owned vector from the runtime enumerators. Move-only;
/// iteration and indexing go through the span either way.
template <typename Shape>
class ShapeSeq {
 public:
  /// Table-backed view; `keeper` pins the mapping for the seq's lifetime
  /// (clear_shape_tables() cannot unmap a sequence still in use).
  ShapeSeq(std::span<const Shape> view, std::shared_ptr<const void> keeper)
      : keeper_(std::move(keeper)), span_(view), table_backed_(true) {}
  explicit ShapeSeq(std::vector<Shape> owned)
      : owned_(std::move(owned)), table_backed_(false) {
    span_ = owned_;
  }
  ShapeSeq(ShapeSeq&&) = default;
  ShapeSeq& operator=(ShapeSeq&&) = default;
  ShapeSeq(const ShapeSeq&) = delete;
  ShapeSeq& operator=(const ShapeSeq&) = delete;

  std::size_t size() const { return span_.size(); }
  bool empty() const { return span_.empty(); }
  const Shape& operator[](std::size_t i) const { return span_[i]; }
  const Shape* begin() const { return span_.data(); }
  const Shape* end() const { return span_.data() + span_.size(); }
  std::span<const Shape> span() const { return span_; }
  /// True when served from an installed table (observability only).
  bool table_backed() const { return table_backed_; }

 private:
  std::shared_ptr<const void> keeper_;
  std::vector<Shape> owned_;
  std::span<const Shape> span_;
  bool table_backed_ = false;
};

/// two_level_shapes(size, topo), table-served when a matching table is
/// installed and covers `size`; runtime-enumerated otherwise.
ShapeSeq<TwoLevelShape> two_level_shape_seq(int size, const FatTree& topo);

/// three_level_shapes(size, topo, restrict_full_leaves). Only the
/// restricted (whole-leaf) family is ever table-served; the general
/// family always enumerates at runtime.
ShapeSeq<ThreeLevelShape> three_level_shape_seq(int size, const FatTree& topo,
                                                bool restrict_full_leaves);

}  // namespace jigsaw
