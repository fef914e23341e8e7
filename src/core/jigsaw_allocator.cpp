#include "core/jigsaw_allocator.hpp"

#include "core/search.hpp"
#include "core/shape_table.hpp"

namespace jigsaw {

std::optional<Allocation> JigsawAllocator::allocate(
    const ClusterState& state, const JobRequest& request,
    const AllocBudget& /*budget*/, SearchStats* stats) const {
  const FatTree& topo = state.topo();
  if (request.nodes < 1 || request.nodes > topo.total_nodes()) {
    return std::nullopt;
  }
  if (request.nodes > state.total_free_nodes()) return std::nullopt;

  const LinkView view{&state, 0.0};
  return search(state, view, request, stats);
}

BlockedReason JigsawAllocator::diagnose(const ClusterState& state,
                                        const JobRequest& request) const {
  const FatTree& topo = state.topo();
  if (request.nodes < 1 || request.nodes > topo.total_nodes()) {
    return BlockedReason::kOversized;
  }
  if (request.nodes > state.total_free_nodes()) {
    return BlockedReason::kNodeShortage;
  }
  // Same probe loop, links unconstrained: a placement found here but
  // not by allocate() was rejected by the link conditions.
  const LinkView view = LinkView::links_unconstrained(&state);
  SearchStats stats;
  if (search(state, view, request, &stats).has_value()) {
    return BlockedReason::kUplinkIsolation;
  }
  if (stats.budget_exhausted) return BlockedReason::kBudgetExhausted;
  return BlockedReason::kLeafSpread;
}

bool JigsawAllocator::quick_reject(const ClusterState& state,
                                   const JobRequest& request) const {
  if (Allocator::quick_reject(state, request)) return true;
  const FatTree& topo = state.topo();
  const int n = request.nodes;
  // Necessity for the two-level pass: the whole job sits inside one
  // subtree, so some subtree must hold n free nodes.
  int fully_free = 0;
  for (TreeId t = 0; t < topo.trees(); ++t) {
    if (state.tree_free_nodes(t) >= n) return false;
    fully_free += state.fully_free_leaves(t);
  }
  // Necessity for the restricted three-level pass: every allocated leaf
  // except the single remainder leaf is wholly owned, so the cluster
  // must hold floor(n / m1) fully-free leaves.
  return fully_free < n / topo.nodes_per_leaf();
}

bool JigsawAllocator::size_unplaceable(const FatTree& topo, int nodes) const {
  if (Allocator::size_unplaceable(topo, nodes)) return true;
  // allocate() enumerates exactly the two-level and restricted
  // three-level families (the §4 restriction), so a size with both
  // sequences empty can never be placed. Only an installed table (PR 8)
  // answers that in O(1); without one the screen claims no structural
  // knowledge rather than paying a runtime enumeration per probe.
  if (const auto table = find_shape_table(topo)) {
    return table->two_level(nodes).empty() &&
           table->three_level_restricted(nodes).empty();
  }
  return false;
}

std::optional<Allocation> JigsawAllocator::search(const ClusterState& state,
                                                 const LinkView& view,
                                                 const JobRequest& request,
                                                 SearchStats* stats) const {
  const FatTree& topo = state.topo();
  std::uint64_t budget = step_budget_;
  auto record = [&](bool exhausted) {
    if (stats != nullptr) {
      stats->steps += step_budget_ - budget;
      stats->budget_exhausted = stats->budget_exhausted || exhausted;
    }
  };
  auto fold = [&](const CandidateScan& r) {
    if (stats != nullptr) stats->probes += r.probes;
  };

  // Pass 1: single-subtree (two-level) allocations, densest shape first,
  // fullest subtree first. Both orders are best fit first, so the first
  // feasible pair is the best-fitting one.
  const auto shapes2 = two_level_shape_seq(request.nodes, topo);
  {
    TwoLevelPick pick;
    const CandidateScan r =
        scan_two_level(state, view, shapes2.span(), TreeOrder::kBestFit,
                       budget, &pick);
    fold(r);
    if (r.winner >= 0) {
      record(false);
      return materialize(state, shapes2[static_cast<std::size_t>(r.winner)],
                         pick, request.id, request.nodes, 0.0);
    }
    if (r.exhausted) {
      record(true);
      return std::nullopt;
    }
  }

  // Pass 2: cross-subtree allocations with the whole-leaf restriction,
  // fewest subtrees first.
  const auto shapes3 =
      three_level_shape_seq(request.nodes, topo, /*restrict_full_leaves=*/true);
  {
    // Kept per thread so that its vectors' capacity carries over and a
    // warm call allocates only the returned Allocation.
    thread_local ThreeLevelPick pick;
    const CandidateScan r = scan_three_level_full_leaves(
        state, view, shapes3.span(), budget, &pick);
    fold(r);
    if (r.winner >= 0) {
      record(false);
      return materialize(state, shapes3[static_cast<std::size_t>(r.winner)],
                         pick, request.id, request.nodes, 0.0);
    }
    if (r.exhausted) {
      record(true);
      return std::nullopt;
    }
  }

  record(false);
  return std::nullopt;
}

}  // namespace jigsaw
