#include "core/jigsaw_allocator.hpp"

#include <algorithm>
#include <numeric>

#include "core/search.hpp"
#include "core/shape_table.hpp"

namespace jigsaw {

namespace {

/// Trees ordered best-fit (fewest free nodes first): packing small jobs
/// into already-busy subtrees keeps other subtrees whole for the
/// three-level placements that large jobs require.
std::vector<TreeId> trees_best_fit(const ClusterState& state) {
  const FatTree& topo = state.topo();
  std::vector<TreeId> order(static_cast<std::size_t>(topo.trees()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](TreeId a, TreeId b) {
    return state.tree_free_nodes(a) < state.tree_free_nodes(b);
  });
  return order;
}

}  // namespace

std::optional<Allocation> JigsawAllocator::allocate(
    const ClusterState& state, const JobRequest& request,
    const AllocBudget& budget, SearchStats* stats) const {
  const FatTree& topo = state.topo();
  if (request.nodes < 1 || request.nodes > topo.total_nodes()) {
    return std::nullopt;
  }
  if (request.nodes > state.total_free_nodes()) return std::nullopt;

  const LinkView view{&state, 0.0};
  return search(state, view, request, budget, stats);
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
  if (search(state, view, request, AllocBudget{}, &stats).has_value()) {
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
                                                 const AllocBudget& latency,
                                                 SearchStats* stats) const {
  const FatTree& topo = state.topo();
  std::uint64_t budget = step_budget_;
  // One clock for the whole call: the deadline bounds both passes
  // together, not each pass separately.
  const AnytimeClock clock(latency);
  const bool anytime = clock.active();
  const AnytimeClock* scan_clock = anytime ? &clock : nullptr;
  auto record = [&](bool exhausted) {
    if (stats != nullptr) {
      stats->steps += step_budget_ - budget;
      stats->budget_exhausted = stats->budget_exhausted || exhausted;
      stats->anytime = stats->anytime || anytime;
      if (clock.ranked()) stats->slack_ns = clock.slack_ns();
    }
  };
  auto fold = [&](const CandidateScan& r) {
    if (stats != nullptr) {
      stats->probes += r.probes;
      stats->deadline_expired = stats->deadline_expired || r.expired;
    }
  };
  // Long probes check the clock internally; position 0 runs unclocked so
  // the top-ranked candidate always gets a full verdict.
  auto probe_clock = [&](std::size_t pos) -> const AnytimeClock* {
    return (anytime && pos > 0) ? &clock : nullptr;
  };

  // Pass 1: single-subtree (two-level) allocations, densest shape first,
  // fullest subtree first. The candidate order is the flat (shape-major,
  // tree-minor) product of the two nested loops this pass used to run.
  // In ranked (anytime) mode the shape axis is permuted quality-descending
  // — fewest leaves touched first — so the scan's min-position winner is
  // the best-fitting feasible placement; the tree axis keeps its best-fit
  // order, which is already quality-descending.
  const std::vector<TreeId> tree_order = trees_best_fit(state);
  const auto shapes2 = two_level_shape_seq(request.nodes, topo);
  const auto rank2 = clock.ranked()
                         ? two_level_ranked_seq(request.nodes, topo)
                         : ShapeSeq<std::uint32_t>({});
  {
    const std::size_t n_trees = tree_order.size();
    auto shape_at = [&](std::size_t pos) -> std::size_t {
      const std::size_t s = pos / n_trees;
      return clock.ranked() ? rank2[s] : s;
    };
    TwoLevelPick pick;
    const CandidateScan r = scan_first_feasible(
        shapes2.size() * n_trees, budget, scan_clock,
        [&](std::size_t pos, std::uint64_t& b) {
          return find_two_level(state, view, shapes2[shape_at(pos)],
                                tree_order[pos % n_trees], b, &pick,
                                probe_clock(pos));
        });
    fold(r);
    if (r.winner >= 0) {
      record(false);
      const std::size_t w = static_cast<std::size_t>(r.winner);
      return materialize(state, shapes2[shape_at(w)], pick, request.id,
                         request.nodes, 0.0);
    }
    if (r.exhausted) {
      record(true);
      return std::nullopt;
    }
    // On expiry with no two-level winner, still give pass 2 its shot:
    // its scan always probes the top-ranked candidate, so a head job
    // that *needs* a cross-subtree placement cannot starve under a tiny
    // deadline — the overrun is bounded at one extra probe.
  }

  // Pass 2: cross-subtree allocations with the whole-leaf restriction.
  const auto shapes3 =
      three_level_shape_seq(request.nodes, topo, /*restrict_full_leaves=*/true);
  const auto rank3 = clock.ranked()
                         ? three_level_ranked_seq(request.nodes, topo)
                         : ShapeSeq<std::uint32_t>({});
  {
    auto shape_at = [&](std::size_t pos) -> std::size_t {
      return clock.ranked() ? rank3[pos] : pos;
    };
    ThreeLevelPick pick;
    const CandidateScan r = scan_first_feasible(
        shapes3.size(), budget, scan_clock,
        [&](std::size_t pos, std::uint64_t& b) {
          return find_three_level_full_leaves(state, view, shapes3[shape_at(pos)],
                                              b, &pick, probe_clock(pos));
        });
    fold(r);
    if (r.winner >= 0) {
      record(false);
      return materialize(state,
                         shapes3[shape_at(static_cast<std::size_t>(r.winner))],
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
