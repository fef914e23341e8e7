// Shared placement-search machinery for the condition-based allocators.
//
// The Jigsaw, LaaS and least-constrained allocators all search for
// placements that satisfy the formal conditions of §3.2; they differ in
// which shapes they admit and in how link availability is defined
// (exclusive wires vs. residual bandwidth). LinkView abstracts the latter,
// and the find_* helpers implement the recursive-backtracking searches of
// Algorithm 1 over it.
//
// The scans and searches allocate nothing once warm: rows of per-L2
// masks (at most 64 words, since FatTree caps m1 and m2 at 64) live on
// the stack, and the lists that grow with the tree count live in
// per-thread scratch that keeps its capacity across calls. Each thread
// therefore searches independently, and one search must not start
// another on the same thread.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/candidate_scan.hpp"
#include "core/shapes.hpp"
#include "topology/cluster_state.hpp"

namespace jigsaw {

/// Availability lens over the cluster state. demand == 0 gives the
/// exclusive-wire view (Jigsaw/LaaS); demand > 0 the bandwidth-share view
/// (LC+S), where a wire is available when its residual covers the demand.
/// A third mode — links_unconstrained() — ignores link *occupancy*
/// entirely (every healthy wire reads as available) and exists only for
/// blocked-reason diagnosis: a scheme whose search succeeds under it but
/// failed under the real view was rejected by the §3.2 link conditions,
/// not by node layout.
struct LinkView {
  const ClusterState* state;
  double demand = 0.0;
  bool ignore_links = false;

  LinkView(const ClusterState* s, double d) : state(s), demand(d) {}

  /// Diagnostic view: link occupancy (and bandwidth demand) ignored;
  /// only hardware health still constrains wires.
  static LinkView links_unconstrained(const ClusterState* s) {
    LinkView v{s, 0.0};
    v.ignore_links = true;
    return v;
  }

  /// Lazy memo for the bandwidth-filtered masks (demand > 0 only): a view
  /// lives within one search over a frozen state, so each residual scan
  /// is paid at most once per wire group. Zero-demand reads are already
  /// O(1) index lookups and bypass the memo.
  mutable std::vector<Mask> leaf_memo_;
  mutable std::vector<char> leaf_known_;
  mutable std::vector<Mask> l2_memo_;
  mutable std::vector<char> l2_known_;

  Mask leaf_up(LeafId l) const {
    if (ignore_links) return state->healthy_leaf_up(l);
    if (demand <= 0.0) return state->free_leaf_up(l);
    if (leaf_known_.empty()) {
      leaf_known_.assign(
          static_cast<std::size_t>(state->topo().total_leaves()), 0);
      leaf_memo_.resize(leaf_known_.size());
    }
    const auto k = static_cast<std::size_t>(l);
    if (!leaf_known_[k]) {
      leaf_memo_[k] = state->leaf_up_with_bandwidth(l, demand);
      leaf_known_[k] = 1;
    }
    return leaf_memo_[k];
  }
  Mask l2_up(TreeId t, int l2_index) const {
    if (ignore_links) return state->healthy_l2_up(t, l2_index);
    if (demand <= 0.0) return state->free_l2_up(t, l2_index);
    const int w2 = state->topo().l2_per_tree();
    if (l2_known_.empty()) {
      l2_known_.assign(
          static_cast<std::size_t>(state->topo().trees() * w2), 0);
      l2_memo_.resize(l2_known_.size());
    }
    const auto k = static_cast<std::size_t>(t * w2 + l2_index);
    if (!l2_known_[k]) {
      l2_memo_[k] = state->l2_up_with_bandwidth(t, l2_index, demand);
      l2_known_[k] = 1;
    }
    return l2_memo_[k];
  }
  /// A leaf usable as a "full" leaf at three levels: every node free and
  /// every uplink available under this view.
  bool leaf_fully_available(LeafId l) const {
    return state->leaf_fully_free(l) &&
           leaf_up(l) == low_bits(state->topo().l2_per_tree());
  }

  /// Spine availability common to every L2 group of a subtree (the
  /// LaaS bundle screen). The zero-demand live view keeps its O(1)
  /// index read; other modes intersect per-group masks.
  Mask l2_up_all(TreeId t) const {
    if (!ignore_links && demand <= 0.0) return state->free_l2_up_all(t);
    Mask common = low_bits(state->topo().spines_per_group());
    for (int i = 0; i < state->topo().l2_per_tree(); ++i) {
      common &= l2_up(t, i);
    }
    return common;
  }
};

/// Leaves of one subtree as a Mask of leaf indices (m2 <= 64), so a
/// pick holds no heap memory and a membership test is one bit test.
/// Iterates its LeafIds in ascending order.
struct LeafSet {
  LeafId first = 0;  ///< LeafId of the subtree's leaf index 0
  Mask bits = 0;     ///< leaf indices in the set

  class const_iterator {
   public:
    const_iterator(LeafId first, Mask rest) : first_(first), rest_(rest) {}
    LeafId operator*() const { return first_ + lowest_bit(rest_); }
    const_iterator& operator++() {
      rest_ &= rest_ - 1;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return rest_ == o.rest_; }

   private:
    LeafId first_;
    Mask rest_;
  };
  const_iterator begin() const { return {first, bits}; }
  const_iterator end() const { return {first, 0}; }
  std::size_t size() const { return static_cast<std::size_t>(popcount(bits)); }
  /// Equal as sets of leaves (two empty sets are equal in any subtree).
  bool operator==(const LeafSet& o) const {
    return bits == o.bits && (bits == 0 || first == o.first);
  }
};

/// Outcome of a single-subtree (two-level) search.
struct TwoLevelPick {
  TreeId tree = -1;
  LeafSet full_leaves;         ///< LT leaves carrying nL nodes each
  LeafId remainder_leaf = -1;  ///< -1 when the shape has no remainder
  Mask s_set = 0;              ///< L2 indices S (0 for single-leaf)
  Mask sr_set = 0;             ///< Sr subset of S for the remainder leaf
};

/// Outcome of a cross-subtree (three-level) search with whole leaves
/// (nodes_per_leaf == m1), i.e. Jigsaw's restricted shape family. Filled
/// only when a placement is found. A caller that keeps one pick across
/// calls reuses its vectors' capacity, so a repeated search allocates
/// nothing.
struct ThreeLevelPick {
  std::vector<TreeId> full_trees;
  /// Leaves used in each full tree, parallel to full_trees.
  std::vector<LeafSet> full_tree_leaves;
  TreeId remainder_tree = -1;
  LeafSet rem_full_leaves;
  LeafId remainder_leaf = -1;
  Mask sr_set = 0;               ///< L2 indices used by the remainder leaf
  std::vector<Mask> s_star;      ///< S*_i per L2 index (|.| == LT)
  std::vector<Mask> s_star_rem;  ///< S*r_i per L2 index (subset of S*_i)
};

/// Searches subtree `tree` for a placement of `shape`. Decrements `budget`
/// per backtracking step and gives up at zero. First-fit over ascending
/// leaf indices; the remainder leaf is chosen best-fit (fewest free nodes
/// that still suffice) to conserve empty leaves. A tree with fewer than
/// full_leaves leaves holding nodes_per_leaf free nodes is rejected
/// before the first step; scan_two_level() screens those trees out so
/// they never reach this call. A non-null `clock` makes long searches
/// cooperative: every 1024 steps (anytime_interrupt) an expired deadline
/// truncates the recursion, reporting infeasible for the rest of this
/// candidate — the default null clock costs one pointer test.
bool find_two_level(const ClusterState& state, const LinkView& view,
                    const TwoLevelShape& shape, TreeId tree,
                    std::uint64_t& budget, TwoLevelPick* out,
                    const AnytimeClock* clock = nullptr);

/// Trees best fit first: fewest free nodes, ties by ascending index.
/// Packing small jobs into already-busy subtrees keeps other subtrees
/// whole for the three-level placements that large jobs require.
/// scan_two_level() builds the same order in reused per-thread scratch;
/// this allocating form serves TA's deadline order and the tests.
std::vector<TreeId> trees_best_fit(const ClusterState& state);

/// The order in which a two-level scan visits trees within a shape.
enum class TreeOrder {
  kBestFit,  ///< trees_best_fit() (Jigsaw, LaaS)
  kIndex,    ///< ascending tree index (LC)
};

/// The two-level pass shared by Jigsaw, LaaS and LC: scan the (shape,
/// tree) pairs shape-major — `shapes` in their canonical best-fit-first
/// order, trees in `order` — and stop at the first pair find_two_level()
/// places. Pairs whose tree lacks full_leaves leaves with nodes_per_leaf
/// free nodes (ClusterState::leaves_with_at_least) are screened out
/// before they become probes; find_two_level() would reject them without
/// a step, so the winner, the pick and the step charge are those of the
/// unscreened scan, while `probes` counts only screened candidates. The
/// tree order is built only once some shape passes the screen, by
/// sorting packed (free nodes, index) keys in place of trees_best_fit()'s
/// stable sort; it is rebuilt on every call and never cached on
/// ClusterState::revision(), which a rolled-back Txn restores, so two
/// states inside one scheduling pass can share a revision. On a win
/// `pick` holds the placement and the result's `winner` is the winning
/// shape's index in `shapes`.
CandidateScan scan_two_level(const ClusterState& state, const LinkView& view,
                             std::span<const TwoLevelShape> shapes,
                             TreeOrder order, std::uint64_t& budget,
                             const AnytimeClock* clock, TwoLevelPick* pick);

/// Searches the whole machine for a placement of a whole-leaf three-level
/// shape (shape.nodes_per_leaf must equal the topology's nodes-per-leaf).
bool find_three_level_full_leaves(const ClusterState& state,
                                  const LinkView& view,
                                  const ThreeLevelShape& shape,
                                  std::uint64_t& budget, ThreeLevelPick* out,
                                  const AnytimeClock* clock = nullptr);

/// Jigsaw's restricted three-level pass: probe the whole-leaf `shapes`
/// in order and stop at the first one find_three_level_full_leaves()
/// places. Shapes the fully-free-leaf counts rule out are not probed:
/// fewer than T trees with LT fully-free leaves, or, when the remainder
/// tree takes LrT > 0 whole leaves, fewer than T+1 trees with LrT of
/// them. Steps can only fall, because the remainder screen skips
/// searches that would fail after spending steps; so whenever the
/// unscreened scan finishes within its step budget, the winner and pick
/// are its. `winner` indexes `shapes`.
CandidateScan scan_three_level_full_leaves(
    const ClusterState& state, const LinkView& view,
    std::span<const ThreeLevelShape> shapes, std::uint64_t& budget,
    const AnytimeClock* clock, ThreeLevelPick* pick);

/// Expand a pick into the concrete resource set, reserving each vector's
/// exact size up front. The state must be the one the pick was searched
/// on. `demand` is copied into Allocation::bandwidth.
Allocation materialize(const ClusterState& state, const TwoLevelShape& shape,
                       const TwoLevelPick& pick, JobId job, int requested,
                       double demand);
Allocation materialize(const ClusterState& state, const ThreeLevelShape& shape,
                       const ThreeLevelPick& pick, JobId job, int requested,
                       double demand);

/// Append the lowest `count` free-node ids on a leaf to `out`; throws
/// std::logic_error when the leaf holds fewer.
void append_free_nodes(const ClusterState& state, LeafId leaf, int count,
                       std::vector<NodeId>* out);

/// Lowest `count` free-node ids on a leaf.
std::vector<NodeId> pick_free_nodes(const ClusterState& state, LeafId leaf,
                                    int count);

}  // namespace jigsaw
