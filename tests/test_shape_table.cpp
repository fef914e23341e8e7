// Precomputed shape tables (core/shape_table.hpp): golden equivalence
// with the runtime enumerators at every (k, n), clean rejection of
// corrupt/truncated/mismatched files, transparent runtime fallback, and
// bit-identical SimMetrics with tables on vs off.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <string>

#include "core/baseline.hpp"
#include "core/jigsaw_allocator.hpp"
#include "core/laas.hpp"
#include "core/lc.hpp"
#include "core/shape_table.hpp"
#include "core/ta.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace jigsaw {
namespace {

std::string temp_path(const char* tag) {
  return testing::TempDir() + "/shape_table_" + tag + "_" +
         std::to_string(::getpid()) + ".jst";
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.write(bytes.data(),
                        static_cast<std::streamsize>(bytes.size())));
}

/// Every sequence in `table` equals the runtime enumeration, element for
/// element, over the full size range.
void expect_matches_runtime(const ShapeTable& table, const FatTree& topo) {
  ASSERT_TRUE(table.matches(topo));
  for (int n = 1; n <= topo.total_nodes(); ++n) {
    const auto t2 = table.two_level(n);
    const auto r2 = two_level_shapes(n, topo);
    ASSERT_EQ(t2.size(), r2.size()) << "two-level n=" << n;
    for (std::size_t i = 0; i < r2.size(); ++i) {
      EXPECT_EQ(t2[i].full_leaves, r2[i].full_leaves);
      EXPECT_EQ(t2[i].nodes_per_leaf, r2[i].nodes_per_leaf);
      EXPECT_EQ(t2[i].remainder, r2[i].remainder);
    }
    const auto t3 = table.three_level_restricted(n);
    const auto r3 = three_level_shapes(n, topo, true);
    ASSERT_EQ(t3.size(), r3.size()) << "three-level n=" << n;
    for (std::size_t i = 0; i < r3.size(); ++i) {
      EXPECT_EQ(t3[i].full_trees, r3[i].full_trees);
      EXPECT_EQ(t3[i].leaves_per_tree, r3[i].leaves_per_tree);
      EXPECT_EQ(t3[i].nodes_per_leaf, r3[i].nodes_per_leaf);
      EXPECT_EQ(t3[i].rem_full_leaves, r3[i].rem_full_leaves);
      EXPECT_EQ(t3[i].rem_leaf_nodes, r3[i].rem_leaf_nodes);
    }
  }
}

class ShapeTableRadix : public ::testing::TestWithParam<int> {};

TEST_P(ShapeTableRadix, RoundTripMatchesRuntimeEverywhere) {
  const FatTree topo = FatTree::from_radix(GetParam());
  const std::string path =
      temp_path(("k" + std::to_string(GetParam())).c_str());
  write_file(path, ShapeTable::serialize(topo));

  std::string error;
  const auto table = ShapeTable::load(path, &error);
  ASSERT_NE(table, nullptr) << error;
  EXPECT_EQ(table->m1(), topo.nodes_per_leaf());
  EXPECT_EQ(table->m2(), topo.leaves_per_tree());
  EXPECT_EQ(table->m3(), topo.trees());
  EXPECT_EQ(table->total_nodes(), topo.total_nodes());
  expect_matches_runtime(*table, topo);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(ProductionRadixes, ShapeTableRadix,
                         ::testing::Values(16, 28, 48));

TEST(ShapeTable, SeqServesTableWhenInstalledAndRuntimeOtherwise) {
  const FatTree topo = FatTree::from_radix(16);
  const std::string path = temp_path("serve");
  write_file(path, ShapeTable::serialize(topo));

  clear_shape_tables();
  reset_shape_serve_counters();

  // No table installed: runtime fallback, counted as such.
  auto seq = two_level_shape_seq(40, topo);
  EXPECT_FALSE(seq.table_backed());
  EXPECT_EQ(shape_serve_counters().two_level_runtime, 1u);
  EXPECT_EQ(shape_serve_counters().two_level_table, 0u);

  std::string error;
  install_shape_table(ShapeTable::load(path, &error));
  ASSERT_EQ(installed_shape_table_count(), 1u);

  auto table_seq = two_level_shape_seq(40, topo);
  EXPECT_TRUE(table_seq.table_backed());
  EXPECT_EQ(shape_serve_counters().two_level_table, 1u);
  ASSERT_EQ(table_seq.size(), seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(table_seq[i].full_leaves, seq[i].full_leaves);
    EXPECT_EQ(table_seq[i].nodes_per_leaf, seq[i].nodes_per_leaf);
    EXPECT_EQ(table_seq[i].remainder, seq[i].remainder);
  }

  auto three = three_level_shape_seq(300, topo, true);
  EXPECT_TRUE(three.table_backed());
  // The general (every-nL) family is runtime-only by design.
  auto general = three_level_shape_seq(300, topo, false);
  EXPECT_FALSE(general.table_backed());
  EXPECT_EQ(shape_serve_counters().three_level_general_runtime, 1u);

  // A different topology still falls back at runtime.
  const FatTree other = FatTree::from_radix(8);
  EXPECT_FALSE(two_level_shape_seq(10, other).table_backed());

  // A table-backed seq created before clear_shape_tables() keeps its
  // mapping alive through its keeper; reading it after the clear is safe.
  clear_shape_tables();
  EXPECT_GT(table_seq.size(), 0u);
  EXPECT_EQ(table_seq[0].full_leaves, seq[0].full_leaves);
  std::remove(path.c_str());
}

TEST(ShapeTable, CorruptTruncatedAndMismatchedFilesFailCleanly) {
  const FatTree topo = FatTree::from_radix(16);
  const std::string good = ShapeTable::serialize(topo);
  const std::string path = temp_path("corrupt");
  std::mt19937_64 rng(0xC0221071ULL);

  // Version mismatch: bump the version field (offset 8) past the known
  // version (2) — must name the version in the error.
  {
    std::string bytes = good;
    bytes[8] = 3;
    write_file(path, bytes);
    std::string error;
    EXPECT_EQ(ShapeTable::load(path, &error), nullptr);
    EXPECT_NE(error.find("version"), std::string::npos) << error;
  }
  // Bad magic.
  {
    std::string bytes = good;
    bytes[0] ^= 0x40;
    write_file(path, bytes);
    std::string error;
    EXPECT_EQ(ShapeTable::load(path, &error), nullptr);
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
  }
  // Missing file.
  {
    std::string error;
    EXPECT_EQ(ShapeTable::load(path + ".does-not-exist", &error), nullptr);
    EXPECT_FALSE(error.empty());
  }

  // Property: >= 100 random corruptions (bit flips and truncations) are
  // either rejected with a clean error, or — only possible for flips in
  // the unvalidated reserved header field — load into a table that still
  // serves every sequence correctly. Never a crash, never wrong data.
  int rejected = 0;
  for (int trial = 0; trial < 120; ++trial) {
    std::string bytes = good;
    if (trial % 3 == 0) {
      bytes.resize(rng() % good.size());  // truncate, possibly to zero
    } else {
      const std::size_t at = rng() % bytes.size();
      bytes[at] = static_cast<char>(bytes[at] ^ (1u << (rng() % 8)));
    }
    write_file(path, bytes);
    std::string error;
    const auto table = ShapeTable::load(path, &error);
    if (table == nullptr) {
      EXPECT_FALSE(error.empty()) << "trial " << trial;
      ++rejected;
    } else {
      expect_matches_runtime(*table, topo);
    }
  }
  EXPECT_GE(rejected, 100);
  std::remove(path.c_str());
}

TEST(ShapeTable, InstallPathsStopsAtFirstBadFile) {
  const FatTree topo = FatTree::from_radix(8);
  const std::string ok_path = temp_path("list_ok");
  write_file(ok_path, ShapeTable::serialize(topo));
  const std::string bad_path = temp_path("list_bad");
  write_file(bad_path, "not a shape table");

  clear_shape_tables();
  std::string error;
  EXPECT_EQ(install_shape_tables(ok_path + ":" + bad_path, &error), 1u);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(installed_shape_table_count(), 1u);

  // The failed install leaves the good table serving — and the scheduler
  // API still falls back to runtime for everything else.
  EXPECT_TRUE(two_level_shape_seq(10, topo).table_backed());
  clear_shape_tables();
  std::remove(ok_path.c_str());
  std::remove(bad_path.c_str());
}

// Bit-identical decisions: for every scheme, SimMetrics with the shape
// table installed must equal the runtime-enumeration metrics down to the
// last bit (%.17g-equivalent via EXPECT_DOUBLE_EQ). ctest runs this TEST
// in its own process, so the global table registry resets with it.
TEST(ShapeTable, GoldenSimMetricsInvariantAcrossTables) {
  Trace trace = named_synthetic("Synth-16", 400);
  Rng rng(0xBADC0FFEEULL);
  assign_bandwidth_classes(trace, rng);
  const FatTree topo = FatTree::from_radix(16);

  const std::string path = temp_path("golden");
  write_file(path, ShapeTable::serialize(topo));

  const BaselineAllocator baseline;
  const LeastConstrainedAllocator lcs(true);
  const JigsawAllocator jigsaw;
  const LaasAllocator laas;
  const TaAllocator ta;
  const Allocator* allocators[] = {&baseline, &lcs, &jigsaw, &laas, &ta};

  for (const Allocator* alloc : allocators) {
    // Reference: runtime enumeration.
    clear_shape_tables();
    const SimMetrics want = simulate(topo, *alloc, trace, SimConfig{});

    for (const bool with_table : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << alloc->name() << " table=" << with_table);
      clear_shape_tables();
      if (with_table) {
        std::string error;
        auto table = ShapeTable::load(path, &error);
        ASSERT_NE(table, nullptr) << error;
        install_shape_table(std::move(table));
      }
      const SimMetrics got = simulate(topo, *alloc, trace, SimConfig{});
      EXPECT_DOUBLE_EQ(got.steady_utilization, want.steady_utilization);
      EXPECT_DOUBLE_EQ(got.makespan, want.makespan);
      EXPECT_DOUBLE_EQ(got.mean_turnaround_all, want.mean_turnaround_all);
      EXPECT_DOUBLE_EQ(got.mean_wait, want.mean_wait);
      EXPECT_EQ(got.completed, want.completed);
      EXPECT_EQ(got.allocate_calls, want.allocate_calls);
      EXPECT_EQ(got.search_steps, want.search_steps);
    }
  }
  clear_shape_tables();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace jigsaw
