#include <gtest/gtest.h>

#include "core/shapes.hpp"

namespace jigsaw {
namespace {

TEST(TwoLevelShapes, AllSumToSize) {
  const FatTree t(8, 8, 16);
  for (int size = 1; size <= 64; ++size) {
    for (const auto& s : two_level_shapes(size, t)) {
      EXPECT_EQ(s.total(), size);
      EXPECT_LT(s.remainder, s.nodes_per_leaf);
      EXPECT_GE(s.full_leaves, 1);
      EXPECT_LE(s.leaves_touched(), t.leaves_per_tree());
    }
  }
}

TEST(TwoLevelShapes, DensestFirst) {
  const FatTree t(8, 8, 16);
  const auto shapes = two_level_shapes(11, t);
  ASSERT_FALSE(shapes.empty());
  EXPECT_EQ(shapes.front().nodes_per_leaf, 8);  // 1*8 + 3
  for (std::size_t k = 1; k < shapes.size(); ++k) {
    EXPECT_LT(shapes[k].nodes_per_leaf, shapes[k - 1].nodes_per_leaf);
  }
}

TEST(TwoLevelShapes, SingleNodeJob) {
  const FatTree t(8, 8, 16);
  const auto shapes = two_level_shapes(1, t);
  ASSERT_EQ(shapes.size(), 1u);
  EXPECT_EQ(shapes[0].full_leaves, 1);
  EXPECT_EQ(shapes[0].nodes_per_leaf, 1);
  EXPECT_EQ(shapes[0].remainder, 0);
}

TEST(TwoLevelShapes, TooManyLeavesExcluded) {
  const FatTree t(2, 3, 4);  // at most 6 nodes per subtree
  // size 6 fits only as 3 leaves x 2 (or fewer leaves with remainder).
  for (const auto& s : two_level_shapes(6, t)) {
    EXPECT_LE(s.leaves_touched(), 3);
  }
  // size 7 exceeds a subtree entirely: no two-level shape exists.
  EXPECT_TRUE(two_level_shapes(7, t).empty());
}

TEST(ThreeLevelShapes, JigsawRestrictionUsesWholeLeaves) {
  const FatTree t(8, 8, 16);
  for (const auto& s : three_level_shapes(100, t, true)) {
    EXPECT_EQ(s.nodes_per_leaf, 8);
    EXPECT_EQ(s.total(), 100);
    EXPECT_GE(s.trees_touched(), 2);
    EXPECT_LE(s.trees_touched(), t.trees());
    EXPECT_LT(s.rem_leaf_nodes, s.nodes_per_leaf);
    if (s.has_remainder_tree()) {
      EXPECT_LT(s.remainder_nodes(), s.nodes_per_tree());
    }
  }
}

TEST(ThreeLevelShapes, FigureThreeExample) {
  // Figure 3: N=11 on a tree with 2 nodes/leaf: T=2 trees of nT=4, plus a
  // remainder tree with one full leaf and a one-node remainder leaf.
  const FatTree t(2, 3, 4);
  bool found = false;
  for (const auto& s : three_level_shapes(11, t, true)) {
    if (s.full_trees == 2 && s.leaves_per_tree == 2 && s.rem_full_leaves == 1 &&
        s.rem_leaf_nodes == 1) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ThreeLevelShapes, GeneralFamilyIsSuperset) {
  const FatTree t(8, 8, 16);
  const auto restricted = three_level_shapes(100, t, true);
  const auto general = three_level_shapes(100, t, false);
  EXPECT_GT(general.size(), restricted.size());
  for (const auto& s : general) {
    EXPECT_EQ(s.total(), 100);
    EXPECT_LE(s.nodes_per_leaf, 8);
    EXPECT_GE(s.nodes_per_leaf, 1);
  }
}

TEST(ThreeLevelShapes, NoSingleTreeShapes) {
  const FatTree t(8, 8, 16);
  // 16 nodes fit in one subtree; the three-level family must not include
  // single-subtree decompositions (those belong to the two-level pass).
  for (const auto& s : three_level_shapes(16, t, false)) {
    EXPECT_GE(s.trees_touched(), 2);
  }
}

TEST(Shapes, InvalidSizeThrows) {
  const FatTree t(4, 4, 4);
  EXPECT_THROW(two_level_shapes(0, t), std::invalid_argument);
  EXPECT_THROW(three_level_shapes(-1, t, true), std::invalid_argument);
}

/// Along two_level_shapes the leaves touched never decrease; along the
/// whole-leaf three_level_shapes every shape touches ceil(n / m1) leaves
/// and the subtrees touched never decrease. A first-feasible scan in
/// these orders therefore commits the best-fitting feasible shape, with
/// no reordering.
void expect_best_fit_first(const FatTree& topo) {
  const int m1 = topo.nodes_per_leaf();
  for (int n = 1; n <= topo.total_nodes(); ++n) {
    const auto s2 = two_level_shapes(n, topo);
    for (std::size_t i = 1; i < s2.size(); ++i) {
      ASSERT_LE(s2[i - 1].leaves_touched(), s2[i].leaves_touched())
          << "two-level " << topo.describe() << " n=" << n << " i=" << i;
    }
    const auto s3 = three_level_shapes(n, topo, true);
    for (std::size_t i = 0; i < s3.size(); ++i) {
      const ThreeLevelShape& s = s3[i];
      const int leaves = s.full_trees * s.leaves_per_tree +
                         s.rem_full_leaves + (s.rem_leaf_nodes > 0 ? 1 : 0);
      ASSERT_EQ(leaves, (n + m1 - 1) / m1)
          << "three-level " << topo.describe() << " n=" << n << " i=" << i;
      if (i > 0) {
        ASSERT_LE(s3[i - 1].trees_touched(), s.trees_touched())
            << "three-level " << topo.describe() << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Shapes, CanonicalOrdersAreBestFitFirst) {
  for (int m1 = 1; m1 <= 12; ++m1) {
    for (int m2 = 1; m2 <= 12; ++m2) {
      for (const int m3 : {1, 2, 3, 5, 8}) {
        expect_best_fit_first(FatTree(m1, m2, m3));
      }
    }
  }
  for (const int radix : {16, 18, 28}) {
    expect_best_fit_first(FatTree::from_radix(radix));
  }
}

}  // namespace
}  // namespace jigsaw
