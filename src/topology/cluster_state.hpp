// Mutable resource availability for a fat-tree cluster.
//
// Tracks, per leaf, the free nodes and free uplink wires, and per L2
// switch the free spine-uplink wires — all as 64-bit masks so allocator
// searches reduce to mask intersections. Optionally tracks fractional
// residual bandwidth per wire for the link-sharing scheduler (LC+S).
//
// Degraded-tree support: every resource additionally carries a *health*
// bit (src/fault/ drives the fail/repair mutations). The free_* queries
// return free-AND-healthy masks, so every allocator built on them is
// automatically confined to the surviving sub-tree. Health composes with
// ownership: a wire owned by a running job may fail while allocated; the
// free bit returns on release but the resource stays invisible until
// repaired, and the free-node counter never double-counts.
//
// Two features keep the allocate/schedule hot path copy-free and
// sweep-free:
//
//  * Incremental capacity indices. Every mutation — apply, release, fail,
//    repair — maintains per-leaf free-node counts, per-tree free-node
//    sums, per-tree fully-free-leaf masks, per-(tree, count) leaf buckets
//    and per-(count, tree) tallies of leaves with at least that many free
//    nodes, so allocator candidate collection reads O(1)/O(buckets)
//    indices instead of rescanning every leaf and tree.
//
//  * An undo journal. Inside a Txn, every mask/residual write records the
//    old value; Txn::rollback() restores the touched words in reverse and
//    re-derives only the touched index slots, giving O(touched-resources)
//    rollback. The EASY scheduler runs head-start, shadow probes and
//    backfill against the caller's state under nested Txns instead of
//    deep-copying the cluster per pass and per probe.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "topology/allocation.hpp"
#include "topology/fat_tree.hpp"
#include "util/bitset64.hpp"

namespace jigsaw {

class ClusterState {
 public:
  /// `usable_bandwidth` is the per-wire budget available to shared
  /// allocations (peak link bandwidth times the utilization cap);
  /// it only matters when bandwidth-tracking allocations are applied.
  explicit ClusterState(const FatTree& topo, double usable_bandwidth = 4.0);

  const FatTree& topo() const { return *topo_; }

  // -- exclusive-resource queries --------------------------------------
  // All masks are restricted to healthy resources; failed hardware is
  // indistinguishable from allocated hardware to a placement search.
  Mask free_nodes(LeafId l) const {
    return free_nodes_[l] & healthy_nodes_[l];
  }
  int free_node_count(LeafId l) const { return leaf_free_[l]; }
  Mask free_leaf_up(LeafId l) const {
    return free_leaf_up_[l] & healthy_leaf_up_[l];
  }
  Mask free_l2_up(TreeId t, int l2_index) const {
    const std::size_t l2 =
        static_cast<std::size_t>(t * topo_->l2_per_tree() + l2_index);
    return free_l2_up_[l2] & healthy_l2_up_[l2];
  }
  bool leaf_fully_free(LeafId l) const {
    return leaf_free_[l] == topo_->nodes_per_leaf();
  }
  int total_free_nodes() const { return total_free_nodes_; }

  // -- incremental capacity indices -------------------------------------
  // Maintained by every mutation (including health-mask changes); all
  // reads are O(1).
  /// Number of fully-free leaves in tree t.
  int fully_free_leaves(TreeId t) const {
    return popcount(fully_free_mask_[t]);
  }
  /// Mask of leaf-indices-in-tree that are fully free (free AND healthy).
  Mask fully_free_leaf_mask(TreeId t) const { return fully_free_mask_[t]; }
  /// Sum of free_node_count over the leaves of tree t.
  int tree_free_nodes(TreeId t) const { return tree_free_[t]; }
  /// Mask of leaf-indices-in-tree whose free-node count is exactly
  /// `count` (0 <= count <= nodes_per_leaf). The buckets partition the
  /// tree's leaves, so best-fit orderings walk them count-ascending.
  Mask leaves_with_free_count(TreeId t, int count) const {
    return leaf_bucket_[static_cast<std::size_t>(t) *
                            (static_cast<std::size_t>(
                                 topo_->nodes_per_leaf()) +
                             1) +
                        static_cast<std::size_t>(count)];
  }
  /// Element t is the number of leaves of tree t with at least `count`
  /// free-and-healthy nodes (0 <= count <= nodes_per_leaf): the suffix
  /// sums of the bucket popcounts, maintained rather than summed per
  /// query. One contiguous row per count, so a capacity screen over all
  /// trees is a single row scan.
  std::span<const int> leaves_with_at_least(int count) const {
    const std::size_t trees = static_cast<std::size_t>(topo_->trees());
    return {at_least_.data() + static_cast<std::size_t>(count) * trees,
            trees};
  }
  /// AND of free_l2_up(t, i) over every L2 switch of tree t: bit j set
  /// when the wire to spine j is free-and-healthy from *all* of them.
  /// One batch kernel over the tree's contiguous row instead of w2
  /// composed queries (LaaS bundle screens, TA spine screens).
  Mask free_l2_up_all(TreeId t) const {
    const std::size_t w2 = static_cast<std::size_t>(topo_->l2_per_tree());
    const std::size_t base = static_cast<std::size_t>(t) * w2;
    return low_bits(topo_->spines_per_group()) &
           and_reduce_rows(&free_l2_up_[base], &healthy_l2_up_[base], w2);
  }
  /// Total free-and-healthy leaf-uplink wires across the cluster.
  int free_leaf_up_total() const {
    return popcount_and_rows(free_leaf_up_.data(), healthy_leaf_up_.data(),
                             free_leaf_up_.size());
  }
  /// Total free-and-healthy L2-uplink wires across the cluster.
  int free_l2_up_total() const {
    return popcount_and_rows(free_l2_up_.data(), healthy_l2_up_.data(),
                             free_l2_up_.size());
  }

  // -- health queries ----------------------------------------------------
  bool node_healthy(NodeId n) const {
    return has_bit(healthy_nodes_[topo_->leaf_of_node(n)],
                   topo_->node_index_in_leaf(n));
  }
  bool leaf_up_healthy(LeafId l, int l2_index) const {
    return has_bit(healthy_leaf_up_[l], l2_index);
  }
  bool l2_up_healthy(TreeId t, int l2_index, int spine_index) const {
    return has_bit(
        healthy_l2_up_[static_cast<std::size_t>(t * topo_->l2_per_tree() +
                                                l2_index)],
        spine_index);
  }
  Mask healthy_nodes(LeafId l) const { return healthy_nodes_[l]; }
  Mask healthy_leaf_up(LeafId l) const { return healthy_leaf_up_[l]; }
  Mask healthy_l2_up(TreeId t, int l2_index) const {
    return healthy_l2_up_[static_cast<std::size_t>(
        t * topo_->l2_per_tree() + l2_index)];
  }
  int failed_node_count() const { return failed_nodes_; }
  int failed_wire_count() const { return failed_wires_; }
  bool degraded() const { return failed_nodes_ > 0 || failed_wires_ > 0; }

  // -- bandwidth-aware queries (for LC+S) -------------------------------
  double usable_bandwidth() const { return usable_bandwidth_; }
  double residual_leaf_up(LeafId l, int l2_index) const;
  double residual_l2_up(TreeId t, int l2_index, int spine_index) const;
  /// Mask of L2 indices whose uplink wire from leaf l has >= demand left
  /// *and* is not exclusively owned.
  Mask leaf_up_with_bandwidth(LeafId l, double demand) const;
  Mask l2_up_with_bandwidth(TreeId t, int l2_index, double demand) const;

  // -- mutation ----------------------------------------------------------
  /// Claims every resource in the allocation. Throws std::logic_error if
  /// any resource is unavailable (callers must only apply placements their
  /// search validated).
  void apply(const Allocation& a);
  /// Returns every resource in the allocation.
  void release(const Allocation& a);

  /// True iff apply(a) would succeed against the current state — every
  /// resource free, healthy, duplicate-free, and (for shared allocations)
  /// covered by residual bandwidth. The simulator prechecks placements
  /// with this so a grant raced by a failure event requeues cleanly
  /// instead of aborting the run.
  bool can_apply(const Allocation& a) const { return check_apply(a) == nullptr; }

  // -- fail / repair -----------------------------------------------------
  // Each returns true when the call changed state (the resource was in
  // the opposite health state), false when it was a no-op — so callers
  // can count newly-failed capacity without pre-querying. Failing an
  // allocated resource is legal: the owner keeps it until release, but no
  // new placement will see it.
  bool fail_node(NodeId n);
  bool repair_node(NodeId n);
  bool fail_leaf_up(LeafId l, int l2_index);
  bool repair_leaf_up(LeafId l, int l2_index);
  bool fail_l2_up(TreeId t, int l2_index, int spine_index);
  bool repair_l2_up(TreeId t, int l2_index, int spine_index);

  // -- transactions ------------------------------------------------------
  /// Speculative-mutation scope. While at least one Txn is open, every
  /// mutation journals the words it overwrites; rollback() restores them
  /// in reverse order (and the revision counter, so an arrival-only
  /// scheduling pass still looks unchanged to the inter-pass cache).
  /// Txns nest LIFO — an inner Txn must resolve before the outer one.
  /// Destruction rolls back unless commit() was called.
  class Txn {
   public:
    explicit Txn(ClusterState& state)
        : state_(&state), frame_(state.begin_txn()) {}
    ~Txn() {
      if (state_ != nullptr) state_->rollback_txn(frame_);
    }
    Txn(const Txn&) = delete;
    Txn& operator=(const Txn&) = delete;
    Txn(Txn&& other) noexcept : state_(other.state_), frame_(other.frame_) {
      other.state_ = nullptr;
    }
    Txn& operator=(Txn&&) = delete;

    /// Undo every mutation made since this Txn opened.
    void rollback() {
      state_->rollback_txn(frame_);
      state_ = nullptr;
    }
    /// Keep the mutations. Inside an outer Txn they remain revertible
    /// by that outer rollback.
    void commit() {
      state_->commit_txn(frame_);
      state_ = nullptr;
    }

   private:
    ClusterState* state_;
    std::size_t frame_;
  };

  /// True while at least one Txn is open (mutations are being journaled).
  bool in_txn() const { return !frames_.empty(); }

  /// Consistency audit for tests: recomputed totals match counters, all
  /// masks are within range, and every incremental index equals its
  /// from-scratch recomputation.
  bool check_invariants() const;

  // -- snapshot access (service/snapshot) --------------------------------
  /// The full mutable state: masks, lazily-allocated residuals, and the
  /// revision counter. The incremental indices and failed-resource
  /// counters are derived and therefore not part of it.
  struct RawState {
    std::vector<Mask> free_nodes;
    std::vector<Mask> free_leaf_up;
    std::vector<Mask> free_l2_up;
    std::vector<Mask> healthy_nodes;
    std::vector<Mask> healthy_leaf_up;
    std::vector<Mask> healthy_l2_up;
    std::vector<double> residual_leaf_up;  ///< empty unless LC+S ran
    std::vector<double> residual_l2_up;
    std::uint64_t revision = 0;
  };
  RawState raw_state() const;
  /// Replace the whole mutable state and recompute every incremental
  /// index plus the failed-node/wire counters from the masks. Returns
  /// false on a size mismatch against the topology (snapshot taken on a
  /// different tree). Throws std::logic_error inside a Txn.
  bool load_raw_state(const RawState& raw);

  /// Monotone counter bumped by every successful apply/release/fail/
  /// repair; lets the scheduler skip repeated searches against an
  /// unchanged cluster. Rolling back a Txn restores the counter to its
  /// value at Txn open.
  std::uint64_t revision() const { return revision_; }

 private:
  // Journaled write targets. One enumerator per mutable array; the undo
  // entry stores (field, flat index, old word).
  enum class Field : std::uint8_t {
    kFreeNodes,
    kFreeLeafUp,
    kFreeL2Up,
    kHealthyNodes,
    kHealthyLeafUp,
    kHealthyL2Up,
    kResidualLeafUp,
    kResidualL2Up,
  };
  struct UndoEntry {
    Field field;
    std::uint32_t index;
    std::uint64_t old_bits;  // mask, or bit-cast double for residuals
  };
  struct TxnFrame {
    std::size_t journal_mark;
    int failed_nodes;
    int failed_wires;
    std::uint64_t revision;
  };

  std::size_t begin_txn();
  void rollback_txn(std::size_t frame);
  void commit_txn(std::size_t frame);
  void restore(const UndoEntry& e);

  // Journaling setters; every mask mutation funnels through these so the
  // undo journal and the incremental indices can never diverge.
  void set_free_nodes(LeafId l, Mask v);
  void set_healthy_nodes(LeafId l, Mask v);
  void set_free_leaf_up(LeafId l, Mask v);
  void set_healthy_leaf_up(LeafId l, Mask v);
  void set_free_l2_up(std::size_t l2, Mask v);
  void set_healthy_l2_up(std::size_t l2, Mask v);
  void set_residual_leaf_up(std::size_t wire, double v);
  void set_residual_l2_up(std::size_t wire, double v);

  /// Re-derive every index slot that depends on leaf l (its free count,
  /// bucket bit, fully-free bit, at-least tallies and the tree/total
  /// sums).
  void refresh_leaf_index(LeafId l);
  void journal(Field f, std::size_t index, std::uint64_t old_bits);

  void ensure_bandwidth_tracking();
  /// nullptr when apply(a) would succeed; otherwise the violation text.
  const char* check_apply(const Allocation& a) const;

  const FatTree* topo_;
  double usable_bandwidth_;
  std::vector<Mask> free_nodes_;    // per leaf
  std::vector<Mask> free_leaf_up_;  // per leaf
  std::vector<Mask> free_l2_up_;    // per (tree * w2 + i)
  std::vector<Mask> healthy_nodes_;    // per leaf
  std::vector<Mask> healthy_leaf_up_;  // per leaf
  std::vector<Mask> healthy_l2_up_;    // per (tree * w2 + i)
  int total_free_nodes_;  // free AND healthy
  int failed_nodes_ = 0;
  int failed_wires_ = 0;  // leaf-up + l2-up wires currently failed
  std::uint64_t revision_ = 0;

  // Incremental indices, derived from the masks above.
  std::vector<int> leaf_free_;        // per leaf: popcount(free & healthy)
  std::vector<int> tree_free_;        // per tree: sum over its leaves
  std::vector<Mask> fully_free_mask_; // per tree: mask of fully-free leaves
  std::vector<Mask> leaf_bucket_;     // per (tree * (m1+1) + count)
  std::vector<int> at_least_;         // per (count * trees + tree)

  // Undo journal; entries are recorded only while a Txn is open.
  std::vector<UndoEntry> journal_;
  std::vector<TxnFrame> frames_;

  // Residual shared bandwidth per wire; allocated lazily on first shared
  // allocation. Indexed like the masks: leaf * w2 + i / (t * w2 + i) * w3 + j.
  std::vector<double> residual_leaf_up_;
  std::vector<double> residual_l2_up_;
};

}  // namespace jigsaw
