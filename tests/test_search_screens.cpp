// The capacity screens in front of the candidate scans must not show in
// their results. On random churned and fault-degraded machines, the
// screened two-level scan returns the winner, pick and step charge of a
// reference loop that calls find_two_level() on every (shape, tree)
// pair, and the screened whole-leaf three-level pass returns the winner
// and pick of an unscreened loop while spending no more steps.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/baseline.hpp"
#include "core/jigsaw_allocator.hpp"
#include "core/search.hpp"
#include "core/shapes.hpp"
#include "util/rng.hpp"

namespace jigsaw {
namespace {

constexpr std::uint64_t kBudget = 1ull << 24;

/// A machine after random churn: Jigsaw placements (which own wires)
/// mixed with Baseline ones (scattered nodes), random releases, then a
/// few node, leaf-uplink and spine-uplink failures.
ClusterState churned_state(const FatTree& t, Rng& rng) {
  ClusterState s(t);
  const JigsawAllocator jigsaw;
  const BaselineAllocator baseline;
  std::vector<Allocation> live;
  const int rounds = 2 * t.total_leaves();
  for (JobId job = 0; job < rounds; ++job) {
    if (!live.empty() && rng.below(3) == 0) {
      const auto k = static_cast<std::size_t>(rng.below(live.size()));
      s.release(live[k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      continue;
    }
    const int size = 1 + static_cast<int>(rng.below(
                             static_cast<std::uint64_t>(t.total_nodes() / 6)));
    const Allocator& a = rng.below(4) == 0
                             ? static_cast<const Allocator&>(baseline)
                             : static_cast<const Allocator&>(jigsaw);
    if (auto alloc = a.allocate(s, JobRequest{job, size, 0.0})) {
      s.apply(*alloc);
      live.push_back(std::move(*alloc));
    }
  }
  const auto faults = rng.below(4);
  for (std::uint64_t f = 0; f < faults; ++f) {
    s.fail_node(static_cast<NodeId>(
        rng.below(static_cast<std::uint64_t>(t.total_nodes()))));
    s.fail_leaf_up(
        static_cast<LeafId>(
            rng.below(static_cast<std::uint64_t>(t.total_leaves()))),
        static_cast<int>(rng.below(static_cast<std::uint64_t>(
            t.l2_per_tree()))));
    s.fail_l2_up(
        static_cast<TreeId>(rng.below(static_cast<std::uint64_t>(t.trees()))),
        static_cast<int>(
            rng.below(static_cast<std::uint64_t>(t.l2_per_tree()))),
        static_cast<int>(
            rng.below(static_cast<std::uint64_t>(t.spines_per_group()))));
  }
  return s;
}

std::vector<TreeId> trees_in(const ClusterState& s, TreeOrder order) {
  if (order == TreeOrder::kBestFit) return trees_best_fit(s);
  std::vector<TreeId> trees(static_cast<std::size_t>(s.topo().trees()));
  std::iota(trees.begin(), trees.end(), 0);
  return trees;
}

void expect_same_pick(const TwoLevelPick& a, const TwoLevelPick& b) {
  EXPECT_EQ(a.tree, b.tree);
  EXPECT_EQ(a.full_leaves, b.full_leaves);
  EXPECT_EQ(a.remainder_leaf, b.remainder_leaf);
  EXPECT_EQ(a.s_set, b.s_set);
  EXPECT_EQ(a.sr_set, b.sr_set);
}

void expect_same_pick(const ThreeLevelPick& a, const ThreeLevelPick& b) {
  EXPECT_EQ(a.full_trees, b.full_trees);
  EXPECT_EQ(a.full_tree_leaves, b.full_tree_leaves);
  EXPECT_EQ(a.remainder_tree, b.remainder_tree);
  EXPECT_EQ(a.rem_full_leaves, b.rem_full_leaves);
  EXPECT_EQ(a.remainder_leaf, b.remainder_leaf);
  EXPECT_EQ(a.sr_set, b.sr_set);
  EXPECT_EQ(a.s_star, b.s_star);
  EXPECT_EQ(a.s_star_rem, b.s_star_rem);
}

class SearchScreens : public ::testing::TestWithParam<int> {};

TEST_P(SearchScreens, TwoLevelScanMatchesEveryPairReference) {
  const FatTree t = FatTree::from_radix(GetParam());
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7717 + 3);
  std::uint64_t screened_probes = 0;
  std::uint64_t reference_probes = 0;
  int wins = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const ClusterState s = churned_state(t, rng);
    const LinkView live{&s, 0.0};
    const LinkView shared{&s, 0.5};
    const LinkView unconstrained = LinkView::links_unconstrained(&s);
    for (int q = 0; q < 8; ++q) {
      const int n = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(
                            t.nodes_per_leaf() * t.leaves_per_tree())));
      const auto shapes = two_level_shapes(n, t);
      // Small budgets exhaust mid-scan; the screened scan must run dry
      // on the same pair.
      const std::uint64_t budget0 =
          rng.below(3) == 0 ? 1 + rng.below(40) : kBudget;
      for (const LinkView* view : {&live, &shared, &unconstrained}) {
        for (const TreeOrder order : {TreeOrder::kBestFit, TreeOrder::kIndex}) {
          SCOPED_TRACE(::testing::Message() << "trial " << trial << " n " << n
                                            << " budget " << budget0);
          std::uint64_t ref_budget = budget0;
          std::ptrdiff_t ref_winner = -1;
          bool ref_exhausted = false;
          TwoLevelPick ref_pick;
          const std::vector<TreeId> trees = trees_in(s, order);
          for (std::size_t si = 0;
               si < shapes.size() && ref_winner < 0 && !ref_exhausted; ++si) {
            for (const TreeId tree : trees) {
              ++reference_probes;
              if (find_two_level(s, *view, shapes[si], tree, ref_budget,
                                 &ref_pick)) {
                ref_winner = static_cast<std::ptrdiff_t>(si);
                break;
              }
              if (ref_budget == 0) {
                ref_exhausted = true;
                break;
              }
            }
          }

          std::uint64_t budget = budget0;
          TwoLevelPick pick;
          const CandidateScan r =
              scan_two_level(s, *view, shapes, order, budget, &pick);
          screened_probes += r.probes;
          ASSERT_EQ(r.winner, ref_winner);
          EXPECT_EQ(r.exhausted, ref_exhausted);
          EXPECT_EQ(budget0 - budget, budget0 - ref_budget);
          if (r.winner >= 0) {
            ++wins;
            expect_same_pick(pick, ref_pick);
          }
        }
      }
    }
  }
  // The sample placed jobs and the screen removed probes.
  EXPECT_GT(wins, 100);
  EXPECT_LT(screened_probes, reference_probes);
}

TEST_P(SearchScreens, ThreeLevelScanMatchesUnscreenedReference) {
  const FatTree t = FatTree::from_radix(GetParam());
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 4241 + 11);
  const int per_tree = t.nodes_per_leaf() * t.leaves_per_tree();
  std::uint64_t screened_steps = 0;
  std::uint64_t reference_steps = 0;
  int wins = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const ClusterState s = churned_state(t, rng);
    const LinkView live{&s, 0.0};
    const LinkView unconstrained = LinkView::links_unconstrained(&s);
    for (int q = 0; q < 8; ++q) {
      // Sizes past one subtree, up to a third of the machine.
      const int n = per_tree + 1 +
                    static_cast<int>(rng.below(static_cast<std::uint64_t>(
                        t.total_nodes() / 3)));
      const auto shapes = three_level_shapes(n, t, /*restrict=*/true);
      for (const LinkView* view : {&live, &unconstrained}) {
        SCOPED_TRACE(::testing::Message() << "trial " << trial << " n " << n);
        std::uint64_t ref_budget = kBudget;
        ThreeLevelPick ref_pick;
        const CandidateScan ref = scan_first_feasible(
            shapes.size(), ref_budget, [&](std::size_t pos, std::uint64_t& b) {
              return find_three_level_full_leaves(s, *view, shapes[pos], b,
                                                  &ref_pick);
            });

        std::uint64_t budget = kBudget;
        ThreeLevelPick pick;
        const CandidateScan r =
            scan_three_level_full_leaves(s, *view, shapes, budget, &pick);
        ASSERT_EQ(r.winner, ref.winner);
        EXPECT_LE(kBudget - budget, kBudget - ref_budget);
        EXPECT_LE(r.probes, ref.probes);
        screened_steps += kBudget - budget;
        reference_steps += kBudget - ref_budget;
        if (r.winner >= 0) {
          ++wins;
          expect_same_pick(pick, ref_pick);
        }
      }
    }
  }
  EXPECT_GT(wins, 20);
  // The remainder screen skips searches the reference pays for.
  EXPECT_LT(screened_steps, reference_steps);
}

INSTANTIATE_TEST_SUITE_P(Radix, SearchScreens, ::testing::Values(8, 12));

}  // namespace
}  // namespace jigsaw
