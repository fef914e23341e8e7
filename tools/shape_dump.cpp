// shape_dump: enumerate the canonical shape tables for a topology and
// write them as a versioned, CRC-framed binary file (core/shape_table.hpp
// documents the format), or verify an existing file against the runtime
// enumerators.
//
//   $ ./shape_dump --radix 48 --out shape_tables/k48.jst
//   $ ./shape_dump --verify shape_tables/k48.jst
//
// The CMake build runs this for k ∈ {16, 28, 48} into
// <build>/shape_tables/ and only re-runs it when the tool itself changed,
// so the tables act like any other cached build artifact. Point
// schedulers at them with --shape-table or JIGSAW_SHAPE_TABLE
// (colon-separated paths, one table per radix).

#include <cstdio>
#include <fstream>
#include <iostream>

#include "core/shape_table.hpp"
#include "util/cli.hpp"

using namespace jigsaw;

namespace {

int verify(const std::string& path) {
  std::string error;
  const auto table = ShapeTable::load(path, &error);
  if (table == nullptr) {
    std::cerr << "FAIL: " << error << "\n";
    return 1;
  }
  const FatTree topo(table->m1(), table->m2(), table->m3());
  std::uint64_t two = 0, three = 0;
  for (int n = 1; n <= table->total_nodes(); ++n) {
    const auto t2 = table->two_level(n);
    const auto r2 = two_level_shapes(n, topo);
    if (!std::equal(t2.begin(), t2.end(), r2.begin(), r2.end(),
                    [](const TwoLevelShape& a, const TwoLevelShape& b) {
                      return a.full_leaves == b.full_leaves &&
                             a.nodes_per_leaf == b.nodes_per_leaf &&
                             a.remainder == b.remainder;
                    })) {
      std::cerr << "FAIL: two-level mismatch at n=" << n << "\n";
      return 1;
    }
    const auto t3 = table->three_level_restricted(n);
    const auto r3 = three_level_shapes(n, topo, true);
    if (!std::equal(t3.begin(), t3.end(), r3.begin(), r3.end(),
                    [](const ThreeLevelShape& a, const ThreeLevelShape& b) {
                      return a.full_trees == b.full_trees &&
                             a.leaves_per_tree == b.leaves_per_tree &&
                             a.nodes_per_leaf == b.nodes_per_leaf &&
                             a.rem_full_leaves == b.rem_full_leaves &&
                             a.rem_leaf_nodes == b.rem_leaf_nodes;
                    })) {
      std::cerr << "FAIL: three-level mismatch at n=" << n << "\n";
      return 1;
    }
    two += t2.size();
    three += t3.size();
  }
  std::cout << "OK: " << path << " (m1=" << table->m1()
            << " m2=" << table->m2() << " m3=" << table->m3() << ", "
            << table->total_nodes() << " sizes, " << two
            << " two-level + " << three << " three-level records, "
            << table->bytes()
            << " bytes) matches runtime enumeration\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.define("radix", "switch radix k (even, 4..64); topology is the "
               "uniform XGFT(3; k/2, k/2, k)", "48");
  flags.define("out", "write the table to this path", "");
  flags.define("verify", "load this table and re-check every sequence "
               "against runtime enumeration instead of writing", "");
  try {
    if (!flags.parse(argc, argv)) return 0;
    if (!flags.str("verify").empty()) return verify(flags.str("verify"));

    const std::string out_path = flags.str("out");
    if (out_path.empty()) {
      std::cerr << "--out PATH (or --verify PATH) is required\n";
      return 1;
    }
    const FatTree topo =
        FatTree::from_radix(static_cast<int>(flags.integer("radix")));
    const std::string bytes = ShapeTable::serialize(topo);
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out || !out.write(bytes.data(),
                           static_cast<std::streamsize>(bytes.size()))) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    out.close();
    std::cout << "wrote " << out_path << " (" << bytes.size()
              << " bytes, m1=" << topo.nodes_per_leaf()
              << " m2=" << topo.leaves_per_tree() << " m3=" << topo.trees()
              << ", sizes 1.." << topo.total_nodes() << ")\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "shape_dump: " << e.what() << "\n";
    return 1;
  }
}
