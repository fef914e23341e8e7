#include <gtest/gtest.h>

#include <vector>

#include "topology/cluster_state.hpp"
#include "util/rng.hpp"

namespace jigsaw {
namespace {

Allocation tiny_alloc(const FatTree& t) {
  Allocation a;
  a.job = 1;
  a.requested_nodes = 3;
  a.nodes = {t.node_id(0, 0), t.node_id(0, 1), t.node_id(1, 0)};
  a.leaf_wires = {LeafWire{0, 0}, LeafWire{0, 2}, LeafWire{1, 0}};
  a.l2_wires = {L2Wire{0, 0, 1}};
  return a;
}

TEST(ClusterState, StartsFullyFree) {
  const FatTree t(4, 4, 4);
  const ClusterState s(t);
  EXPECT_EQ(s.total_free_nodes(), t.total_nodes());
  for (LeafId l = 0; l < t.total_leaves(); ++l) {
    EXPECT_EQ(s.free_nodes(l), low_bits(4));
    EXPECT_EQ(s.free_leaf_up(l), low_bits(4));
    EXPECT_TRUE(s.leaf_fully_free(l));
  }
  for (TreeId tr = 0; tr < t.trees(); ++tr) {
    EXPECT_EQ(s.fully_free_leaves(tr), 4);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(s.free_l2_up(tr, i), low_bits(4));
  }
  EXPECT_TRUE(s.check_invariants());
}

TEST(ClusterState, ApplyReleaseRoundTrip) {
  const FatTree t(4, 4, 4);
  ClusterState s(t);
  const Allocation a = tiny_alloc(t);
  s.apply(a);
  EXPECT_EQ(s.total_free_nodes(), t.total_nodes() - 3);
  EXPECT_EQ(s.free_nodes(0), low_bits(4) & ~Mask{0b11});
  EXPECT_FALSE(s.leaf_fully_free(0));
  EXPECT_EQ(s.free_leaf_up(0), low_bits(4) & ~Mask{0b101});
  EXPECT_EQ(s.free_l2_up(0, 0), low_bits(4) & ~Mask{0b10});
  EXPECT_TRUE(s.check_invariants());
  s.release(a);
  EXPECT_EQ(s.total_free_nodes(), t.total_nodes());
  EXPECT_TRUE(s.leaf_fully_free(0));
  EXPECT_TRUE(s.check_invariants());
}

TEST(ClusterState, DoubleApplyThrows) {
  const FatTree t(4, 4, 4);
  ClusterState s(t);
  const Allocation a = tiny_alloc(t);
  s.apply(a);
  EXPECT_THROW(s.apply(a), std::logic_error);
}

TEST(ClusterState, ReleaseUnallocatedThrows) {
  const FatTree t(4, 4, 4);
  ClusterState s(t);
  EXPECT_THROW(s.release(tiny_alloc(t)), std::logic_error);
}

TEST(ClusterState, ConflictingWireThrows) {
  const FatTree t(4, 4, 4);
  ClusterState s(t);
  Allocation a;
  a.job = 1;
  a.requested_nodes = 1;
  a.nodes = {t.node_id(0, 0)};
  a.leaf_wires = {LeafWire{0, 1}};
  s.apply(a);
  Allocation b;
  b.job = 2;
  b.requested_nodes = 1;
  b.nodes = {t.node_id(0, 1)};
  b.leaf_wires = {LeafWire{0, 1}};  // same wire
  EXPECT_THROW(s.apply(b), std::logic_error);
}

TEST(ClusterState, BandwidthSharingAllowsCotenants) {
  const FatTree t(4, 4, 4);
  ClusterState s(t, 4.0);
  Allocation a;
  a.job = 1;
  a.requested_nodes = 1;
  a.nodes = {t.node_id(0, 0)};
  a.leaf_wires = {LeafWire{0, 1}};
  a.bandwidth = 2.0;
  s.apply(a);
  EXPECT_DOUBLE_EQ(s.residual_leaf_up(0, 1), 2.0);
  // A second 2.0 GB/s tenant still fits; a third does not.
  Allocation b = a;
  b.job = 2;
  b.nodes = {t.node_id(0, 1)};
  s.apply(b);
  EXPECT_DOUBLE_EQ(s.residual_leaf_up(0, 1), 0.0);
  Allocation c = a;
  c.job = 3;
  c.nodes = {t.node_id(0, 2)};
  EXPECT_THROW(s.apply(c), std::logic_error);
  EXPECT_TRUE(s.check_invariants());
  s.release(b);
  EXPECT_DOUBLE_EQ(s.residual_leaf_up(0, 1), 2.0);
  s.apply(c);  // fits again after the release
  EXPECT_TRUE(s.check_invariants());
}

TEST(ClusterState, BandwidthMaskThresholds) {
  const FatTree t(4, 4, 4);
  ClusterState s(t, 4.0);
  Allocation a;
  a.job = 1;
  a.requested_nodes = 1;
  a.nodes = {t.node_id(0, 0)};
  a.leaf_wires = {LeafWire{0, 0}};
  a.l2_wires = {L2Wire{0, 0, 0}};
  a.bandwidth = 3.0;
  s.apply(a);
  EXPECT_EQ(s.leaf_up_with_bandwidth(0, 2.0), low_bits(4) & ~Mask{1});
  EXPECT_EQ(s.leaf_up_with_bandwidth(0, 1.0), low_bits(4));
  EXPECT_EQ(s.l2_up_with_bandwidth(0, 0, 2.0), low_bits(4) & ~Mask{1});
}

TEST(ClusterState, ExclusiveWireExcludedFromBandwidthMask) {
  const FatTree t(4, 4, 4);
  ClusterState s(t, 4.0);
  Allocation a;
  a.job = 1;
  a.requested_nodes = 1;
  a.nodes = {t.node_id(0, 0)};
  a.leaf_wires = {LeafWire{0, 2}};
  s.apply(a);  // exclusive
  EXPECT_EQ(s.leaf_up_with_bandwidth(0, 0.5), low_bits(4) & ~Mask{0b100});
}

// ---- randomized interleaving property test ------------------------------

/// Every public query of the two states must agree. Bandwidth state is
/// compared through the guarded queries (and the residual accessors,
/// which default to the usable budget), so a state whose residual arrays
/// were lazily allocated and then rolled back compares equal to one that
/// never allocated them.
void expect_states_equal(const ClusterState& a, const ClusterState& b) {
  const FatTree& t = a.topo();
  EXPECT_EQ(a.total_free_nodes(), b.total_free_nodes());
  EXPECT_EQ(a.failed_node_count(), b.failed_node_count());
  EXPECT_EQ(a.failed_wire_count(), b.failed_wire_count());
  for (LeafId l = 0; l < t.total_leaves(); ++l) {
    ASSERT_EQ(a.free_nodes(l), b.free_nodes(l)) << "leaf " << l;
    ASSERT_EQ(a.free_leaf_up(l), b.free_leaf_up(l)) << "leaf " << l;
    ASSERT_EQ(a.healthy_nodes(l), b.healthy_nodes(l)) << "leaf " << l;
    ASSERT_EQ(a.healthy_leaf_up(l), b.healthy_leaf_up(l)) << "leaf " << l;
    ASSERT_EQ(a.free_node_count(l), b.free_node_count(l)) << "leaf " << l;
    for (const double demand : {0.5, 1.0, 2.0}) {
      ASSERT_EQ(a.leaf_up_with_bandwidth(l, demand),
                b.leaf_up_with_bandwidth(l, demand))
          << "leaf " << l << " demand " << demand;
    }
    for (int i = 0; i < t.l2_per_tree(); ++i) {
      ASSERT_DOUBLE_EQ(a.residual_leaf_up(l, i), b.residual_leaf_up(l, i));
    }
  }
  for (TreeId tr = 0; tr < t.trees(); ++tr) {
    ASSERT_EQ(a.fully_free_leaves(tr), b.fully_free_leaves(tr));
    ASSERT_EQ(a.fully_free_leaf_mask(tr), b.fully_free_leaf_mask(tr));
    ASSERT_EQ(a.tree_free_nodes(tr), b.tree_free_nodes(tr));
    for (int c = 0; c <= t.nodes_per_leaf(); ++c) {
      ASSERT_EQ(a.leaves_with_free_count(tr, c),
                b.leaves_with_free_count(tr, c))
          << "tree " << tr << " count " << c;
      ASSERT_EQ(a.leaves_with_at_least(c)[static_cast<std::size_t>(tr)],
                b.leaves_with_at_least(c)[static_cast<std::size_t>(tr)])
          << "tree " << tr << " count " << c;
    }
    for (int i = 0; i < t.l2_per_tree(); ++i) {
      ASSERT_EQ(a.free_l2_up(tr, i), b.free_l2_up(tr, i));
      ASSERT_EQ(a.healthy_l2_up(tr, i), b.healthy_l2_up(tr, i));
      for (const double demand : {0.5, 1.0, 2.0}) {
        ASSERT_EQ(a.l2_up_with_bandwidth(tr, i, demand),
                  b.l2_up_with_bandwidth(tr, i, demand));
      }
      for (int j = 0; j < t.spines_per_group(); ++j) {
        ASSERT_DOUBLE_EQ(a.residual_l2_up(tr, i, j),
                         b.residual_l2_up(tr, i, j));
      }
    }
  }
}

int random_set_bit(Rng& rng, Mask m) {
  std::uint64_t k = rng.below(static_cast<std::uint64_t>(popcount(m)));
  while (k-- > 0) m &= m - 1;
  return lowest_bit(m);
}

/// A small allocation drawn from currently-free resources. May still be
/// rejected by can_apply (duplicates across picks, residual shortfall);
/// callers gate on that.
Allocation random_alloc(Rng& rng, const ClusterState& s, JobId id) {
  const FatTree& t = s.topo();
  Allocation a;
  a.job = id;
  if (rng.chance(0.3)) a.bandwidth = rng.chance(0.5) ? 0.5 : 2.0;
  const int leaf_picks = static_cast<int>(rng.between(1, 2));
  for (int k = 0; k < leaf_picks; ++k) {
    const LeafId l =
        static_cast<LeafId>(rng.below(static_cast<std::uint64_t>(
            t.total_leaves())));
    Mask nodes = s.free_nodes(l);
    const int node_picks = static_cast<int>(rng.between(0, 2));
    for (int n = 0; n < node_picks && nodes != 0; ++n) {
      const int bit = random_set_bit(rng, nodes);
      nodes &= ~(Mask{1} << bit);
      a.nodes.push_back(t.node_id(l, bit));
    }
    const Mask up = s.free_leaf_up(l);
    if (up != 0 && rng.chance(0.6)) {
      a.leaf_wires.push_back(LeafWire{l, random_set_bit(rng, up)});
    }
  }
  const TreeId tr = static_cast<TreeId>(
      rng.below(static_cast<std::uint64_t>(t.trees())));
  const int i = static_cast<int>(
      rng.below(static_cast<std::uint64_t>(t.l2_per_tree())));
  const Mask l2 = s.free_l2_up(tr, i);
  if (l2 != 0 && rng.chance(0.4)) {
    a.l2_wires.push_back(L2Wire{tr, i, random_set_bit(rng, l2)});
  }
  a.requested_nodes = static_cast<int>(a.nodes.size());
  return a;
}

void random_health_flip(Rng& rng, ClusterState& s, bool fail) {
  const FatTree& t = s.topo();
  switch (rng.below(3)) {
    case 0: {
      const NodeId n = static_cast<NodeId>(
          rng.below(static_cast<std::uint64_t>(t.total_nodes())));
      if (fail) {
        s.fail_node(n);
      } else {
        s.repair_node(n);
      }
      break;
    }
    case 1: {
      const LeafId l = static_cast<LeafId>(
          rng.below(static_cast<std::uint64_t>(t.total_leaves())));
      const int i = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(t.l2_per_tree())));
      if (fail) {
        s.fail_leaf_up(l, i);
      } else {
        s.repair_leaf_up(l, i);
      }
      break;
    }
    default: {
      const TreeId tr = static_cast<TreeId>(
          rng.below(static_cast<std::uint64_t>(t.trees())));
      const int i = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(t.l2_per_tree())));
      const int j = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(t.spines_per_group())));
      if (fail) {
        s.fail_l2_up(tr, i, j);
      } else {
        s.repair_l2_up(tr, i, j);
      }
      break;
    }
  }
}

/// From-scratch rebuild of `s`: a fresh state with the same live
/// allocations applied, then the same primitives failed. Allocations go
/// first because failing an allocated resource is legal but applying onto
/// a failed one is not.
ClusterState rebuild(const ClusterState& s,
                     const std::vector<Allocation>& live) {
  const FatTree& t = s.topo();
  ClusterState fresh(t, s.usable_bandwidth());
  for (const Allocation& a : live) fresh.apply(a);
  for (NodeId n = 0; n < t.total_nodes(); ++n) {
    if (!s.node_healthy(n)) fresh.fail_node(n);
  }
  for (LeafId l = 0; l < t.total_leaves(); ++l) {
    for (int i = 0; i < t.l2_per_tree(); ++i) {
      if (!s.leaf_up_healthy(l, i)) fresh.fail_leaf_up(l, i);
    }
  }
  for (TreeId tr = 0; tr < t.trees(); ++tr) {
    for (int i = 0; i < t.l2_per_tree(); ++i) {
      for (int j = 0; j < t.spines_per_group(); ++j) {
        if (!s.l2_up_healthy(tr, i, j)) fresh.fail_l2_up(tr, i, j);
      }
    }
  }
  return fresh;
}

TEST(ClusterStateProperty, InterleavedMutationsMatchRebuild) {
  const FatTree t(4, 4, 4);
  Rng rng(0xC0FFEE123ULL);
  ClusterState s(t, 4.0);
  std::vector<Allocation> live;
  JobId next_job = 1;

  for (int iter = 0; iter < 400; ++iter) {
    const std::uint64_t op = rng.below(8);
    if (op < 3) {
      const Allocation a = random_alloc(rng, s, next_job++);
      if (s.can_apply(a)) {
        s.apply(a);
        live.push_back(a);
      }
    } else if (op < 5 && !live.empty()) {
      const std::size_t k = static_cast<std::size_t>(
          rng.below(static_cast<std::uint64_t>(live.size())));
      s.release(live[k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (op == 5) {
      random_health_flip(rng, s, /*fail=*/true);
    } else if (op == 6) {
      random_health_flip(rng, s, /*fail=*/false);
    } else {
      // Transaction scope: speculate (placements, releases, health
      // flips, a nested inner transaction), roll everything back, and
      // require the state — revision included — to be bit-identical to
      // the snapshot taken before the transaction opened.
      const ClusterState snapshot = s;
      const std::uint64_t revision_before = s.revision();
      {
        ClusterState::Txn txn(s);
        ASSERT_TRUE(s.in_txn());
        const Allocation spec = random_alloc(rng, s, next_job++);
        if (s.can_apply(spec)) s.apply(spec);
        random_health_flip(rng, s, rng.chance(0.5));
        if (!live.empty() && rng.chance(0.5)) {
          s.release(live[static_cast<std::size_t>(rng.below(
              static_cast<std::uint64_t>(live.size())))]);
        }
        if (rng.chance(0.5)) {
          ClusterState::Txn inner(s);
          random_health_flip(rng, s, rng.chance(0.5));
          const Allocation inner_spec = random_alloc(rng, s, next_job++);
          if (s.can_apply(inner_spec)) s.apply(inner_spec);
          // `inner` rolls back on scope exit.
        }
        txn.rollback();
      }
      ASSERT_FALSE(s.in_txn());
      EXPECT_EQ(s.revision(), revision_before);
      expect_states_equal(s, snapshot);
    }
    ASSERT_TRUE(s.check_invariants()) << "iteration " << iter;
    if (iter % 64 == 63) expect_states_equal(s, rebuild(s, live));
  }
  expect_states_equal(s, rebuild(s, live));
}

TEST(ClusterState, CopySemanticsForShadowState) {
  const FatTree t(4, 4, 4);
  ClusterState s(t);
  const Allocation a = tiny_alloc(t);
  s.apply(a);
  ClusterState shadow = s;  // the EASY scheduler's copy
  shadow.release(a);
  EXPECT_EQ(shadow.total_free_nodes(), t.total_nodes());
  EXPECT_EQ(s.total_free_nodes(), t.total_nodes() - 3);  // original untouched
}

}  // namespace
}  // namespace jigsaw
