#include "core/laas.hpp"

#include <algorithm>

#include "core/search.hpp"
#include "core/shape_table.hpp"

namespace jigsaw {

namespace {

/// Spine-index bundles available in tree t under `view`: bit j set when
/// the wire to spine j is available from *every* L2 switch of the tree.
/// Under whole-leaf operation bundles are claimed and released
/// atomically, so the live view's index read is exact.
Mask free_bundles(const LinkView& view, TreeId t) {
  return view.l2_up_all(t);
}

/// Lowest `count` fully-free leaves of tree t whose uplinks are all
/// available under `view` (whole-leaf grants need the uplinks too, which
/// free leaves always have under whole-leaf operation). The uplink check
/// stays for degraded trees, where a node-fully-free leaf can have
/// failed uplink wires.
std::vector<LeafId> free_leaves(const ClusterState& state,
                                const LinkView& view, TreeId t, int count) {
  std::vector<LeafId> out;
  const FatTree& topo = state.topo();
  const Mask all_up = low_bits(topo.l2_per_tree());
  Mask fully_free = state.fully_free_leaf_mask(t);
  while (fully_free != 0 && static_cast<int>(out.size()) < count) {
    const int li = lowest_bit(fully_free);
    fully_free &= fully_free - 1;
    const LeafId l = topo.leaf_id(t, li);
    if (view.leaf_up(l) == all_up) out.push_back(l);
  }
  if (static_cast<int>(out.size()) < count) out.clear();
  return out;
}

void take_whole_leaf(const ClusterState& state, LeafId l, Allocation* a) {
  const FatTree& topo = state.topo();
  for (int n = 0; n < topo.nodes_per_leaf(); ++n) {
    a->nodes.push_back(topo.node_id(l, n));
  }
  for (int i = 0; i < topo.l2_per_tree(); ++i) {
    a->leaf_wires.push_back(LeafWire{l, i});
  }
}

void take_bundles(const ClusterState& state, TreeId t, Mask bundles,
                  Allocation* a) {
  for (int i = 0; i < state.topo().l2_per_tree(); ++i) {
    for_each_bit(bundles,
                 [&](int j) { a->l2_wires.push_back(L2Wire{t, i, j}); });
  }
}

struct LaasCtx {
  const ClusterState* state;
  const LinkView* view;
  int per_tree;   ///< c: leaves per full subtree
  int full;       ///< q: full subtrees
  int remainder;  ///< cr: leaves in the remainder subtree
  std::vector<TreeId> cand;
  std::vector<Mask> cand_bundles;
  std::vector<TreeId> chosen;
  std::uint64_t* budget;
  Allocation* out;
  const AnytimeClock* clock = nullptr;
};

bool laas_complete(LaasCtx& ctx, Mask inter) {
  const FatTree& topo = ctx.state->topo();
  const Mask j_set = lowest_n_bits(inter, ctx.per_tree);
  Allocation staged = *ctx.out;  // header fields already populated
  for (const TreeId t : ctx.chosen) {
    for (const LeafId l : free_leaves(*ctx.state, *ctx.view, t,
                                      ctx.per_tree)) {
      take_whole_leaf(*ctx.state, l, &staged);
    }
    take_bundles(*ctx.state, t, j_set, &staged);
  }
  if (ctx.remainder > 0) {
    TreeId found = -1;
    Mask jr = 0;
    for (TreeId tr = 0; tr < topo.trees(); ++tr) {
      if (*ctx.budget == 0) return false;
      --*ctx.budget;
      if (anytime_interrupt(ctx.clock, *ctx.budget)) return false;
      if (std::find(ctx.chosen.begin(), ctx.chosen.end(), tr) !=
          ctx.chosen.end()) {
        continue;
      }
      const Mask b = free_bundles(*ctx.view, tr) & j_set;
      if (popcount(b) < ctx.remainder) continue;
      if (free_leaves(*ctx.state, *ctx.view, tr, ctx.remainder).empty()) {
        continue;
      }
      found = tr;
      jr = lowest_n_bits(b, ctx.remainder);
      break;
    }
    if (found < 0) return false;
    for (const LeafId l : free_leaves(*ctx.state, *ctx.view, found,
                                      ctx.remainder)) {
      take_whole_leaf(*ctx.state, l, &staged);
    }
    take_bundles(*ctx.state, found, jr, &staged);
  }
  *ctx.out = std::move(staged);
  return true;
}

bool laas_recurse(LaasCtx& ctx, std::size_t start, Mask inter) {
  if (*ctx.budget == 0) return false;
  --*ctx.budget;
  if (anytime_interrupt(ctx.clock, *ctx.budget)) return false;
  if (static_cast<int>(ctx.chosen.size()) == ctx.full) {
    return laas_complete(ctx, inter);
  }
  const std::size_t need =
      static_cast<std::size_t>(ctx.full) - ctx.chosen.size();
  for (std::size_t idx = start; idx + need <= ctx.cand.size(); ++idx) {
    const Mask next = inter & ctx.cand_bundles[idx];
    if (popcount(next) < ctx.per_tree) continue;
    ctx.chosen.push_back(ctx.cand[idx]);
    if (laas_recurse(ctx, idx + 1, next)) return true;
    ctx.chosen.pop_back();
    if (*ctx.budget == 0) return false;
  }
  return false;
}

}  // namespace

std::optional<Allocation> LaasAllocator::allocate(const ClusterState& state,
                                                  const JobRequest& request,
                                                  const AllocBudget& budget,
                                                  SearchStats* stats) const {
  const FatTree& topo = state.topo();
  if (request.nodes < 1 || request.nodes > topo.total_nodes()) {
    return std::nullopt;
  }
  const LinkView view{&state, 0.0};
  return search(state, view, request, budget, stats);
}

BlockedReason LaasAllocator::diagnose(const ClusterState& state,
                                      const JobRequest& request) const {
  const FatTree& topo = state.topo();
  if (request.nodes < 1 || request.nodes > topo.total_nodes()) {
    return BlockedReason::kOversized;
  }
  if (request.nodes > state.total_free_nodes()) {
    return BlockedReason::kNodeShortage;
  }
  // Same probe loop, links unconstrained: a placement found here but
  // not by allocate() was rejected by the link conditions. LaaS's
  // whole-leaf rounding constraints count as layout — they bind
  // identically under both views.
  const LinkView view = LinkView::links_unconstrained(&state);
  SearchStats stats;
  if (search(state, view, request, AllocBudget{}, &stats).has_value()) {
    return BlockedReason::kUplinkIsolation;
  }
  if (stats.budget_exhausted) return BlockedReason::kBudgetExhausted;
  return BlockedReason::kLeafSpread;
}

bool LaasAllocator::quick_reject(const ClusterState& state,
                                 const JobRequest& request) const {
  if (Allocator::quick_reject(state, request)) return true;
  const FatTree& topo = state.topo();
  const int m1 = topo.nodes_per_leaf();
  const int n = request.nodes;
  // Necessity for the native two-level pass: the whole job sits inside
  // one subtree, so some subtree must hold n free nodes.
  int fully_free = 0;
  for (TreeId t = 0; t < topo.trees(); ++t) {
    if (state.tree_free_nodes(t) >= n) return false;
    fully_free += state.fully_free_leaves(t);
  }
  // Necessity for the whole-leaf reduction: the job is rounded up to
  // ceil(n / m1) entire leaves, so that many fully-free leaves must
  // exist cluster-wide.
  return fully_free < (n + m1 - 1) / m1;
}

std::optional<Allocation> LaasAllocator::search(const ClusterState& state,
                                               const LinkView& view,
                                               const JobRequest& request,
                                               const AllocBudget& latency,
                                               SearchStats* stats) const {
  const FatTree& topo = state.topo();
  const int m1 = topo.nodes_per_leaf();
  const int m2 = topo.leaves_per_tree();
  const int m3 = topo.trees();
  const int leaves_needed = (request.nodes + m1 - 1) / m1;  // R

  std::uint64_t budget = step_budget_;
  const AnytimeClock clock(latency);
  auto record = [&](bool exhausted) {
    if (stats != nullptr) {
      stats->steps += step_budget_ - budget;
      stats->budget_exhausted = stats->budget_exhausted || exhausted;
      stats->anytime = stats->anytime || clock.active();
      if (clock.active()) stats->slack_ns = clock.slack_ns();
    }
  };
  auto fold = [&](const CandidateScan& r) {
    if (stats != nullptr) {
      stats->probes += r.probes;
      stats->deadline_expired = stats->deadline_expired || r.expired;
    }
  };

  // Single-subtree allocations first: LaaS's native two-level conditions
  // (shared with Jigsaw) place exact node counts — no rounding. Fullest
  // subtree first, keeping whole subtrees available for spanning jobs.
  const auto shapes2 = two_level_shape_seq(request.nodes, topo);
  {
    TwoLevelPick pick;
    const CandidateScan r =
        scan_two_level(state, view, shapes2.span(), TreeOrder::kBestFit,
                       budget, &clock, &pick);
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

  // Multi-subtree: spread R leaves evenly, densest decomposition first.
  // Candidate k is the leaf-spread width c = cmax - k; the width screens
  // cost no search steps, so they fold into the probe as step-free
  // rejections exactly as the old `continue`s did. Widest c first
  // touches the fewest subtrees, so this order is best fit first too.
  {
    const int cmax = std::min(leaves_needed, m2);
    Allocation a;
    const CandidateScan r = scan_first_feasible(
        cmax > 0 ? static_cast<std::size_t>(cmax) : 0, budget, &clock,
        [&](std::size_t k, std::uint64_t& b, const AnytimeClock* k_clock) {
          const int c = cmax - static_cast<int>(k);
          const int q = leaves_needed / c;
          const int cr = leaves_needed % c;
          if (q < 1 || q + (cr > 0 ? 1 : 0) < 2) return false;
          if (q + (cr > 0 ? 1 : 0) > m3) return false;

          LaasCtx ctx{&state, &view, c,  q,       cr,     {},
                      {},     {},    &b, nullptr, k_clock};
          for (TreeId t = 0; t < m3; ++t) {
            if (free_leaves(state, view, t, c).empty()) continue;
            const Mask bundles = free_bundles(view, t);
            if (popcount(bundles) < c) continue;
            ctx.cand.push_back(t);
            ctx.cand_bundles.push_back(bundles);
          }
          if (static_cast<int>(ctx.cand.size()) < q) return false;

          a.clear();
          a.job = request.id;
          a.requested_nodes = request.nodes;
          ctx.out = &a;
          return laas_recurse(ctx, 0, low_bits(topo.spines_per_group()));
        });
    fold(r);
    if (r.winner >= 0) {
      record(false);
      return a;
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
