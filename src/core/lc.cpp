#include "core/lc.hpp"

#include <algorithm>
#include <limits>

#include "core/search.hpp"
#include "core/shape_table.hpp"

namespace jigsaw {

namespace {

constexpr std::size_t kMaxSolutionsPerTree = 32;

/// One FIND_ALL_L2 result: LT leaves of a subtree whose available-uplink
/// masks intersect in `m` (|m| >= nL). Solutions are deduplicated by mask —
/// two leaf sets with the same intersection are interchangeable for the
/// cross-subtree combination search.
struct TreeSolution {
  std::vector<LeafId> leaves;
  Mask m = 0;
};

struct L2Ctx {
  const ClusterState* state;
  const LinkView* view;
  TreeId tree;
  int full_leaves;     // LT
  int nodes_per_leaf;  // nL
  std::vector<LeafId> candidates;
  std::vector<Mask> cand_up;
  std::vector<LeafId> chosen;
  std::vector<TreeSolution>* out;
  std::uint64_t* budget;
};

void find_all_l2(L2Ctx& ctx, std::size_t start, Mask inter) {
  if (*ctx.budget == 0 || ctx.out->size() >= kMaxSolutionsPerTree) return;
  --*ctx.budget;
  if (static_cast<int>(ctx.chosen.size()) == ctx.full_leaves) {
    for (const TreeSolution& s : *ctx.out) {
      if (s.m == inter) return;  // mask-equivalent solution already stored
    }
    ctx.out->push_back(TreeSolution{ctx.chosen, inter});
    return;
  }
  const std::size_t need =
      static_cast<std::size_t>(ctx.full_leaves) - ctx.chosen.size();
  for (std::size_t idx = start; idx + need <= ctx.candidates.size(); ++idx) {
    const Mask next = inter & ctx.cand_up[idx];
    if (popcount(next) < ctx.nodes_per_leaf) continue;
    ctx.chosen.push_back(ctx.candidates[idx]);
    find_all_l2(ctx, idx + 1, next);
    ctx.chosen.pop_back();
    if (*ctx.budget == 0 || ctx.out->size() >= kMaxSolutionsPerTree) return;
  }
}

std::vector<TreeSolution> tree_solutions(const ClusterState& state,
                                         const LinkView& view, TreeId tree,
                                         int full_leaves, int nodes_per_leaf,
                                         std::uint64_t& budget) {
  std::vector<TreeSolution> out;
  if (full_leaves == 0) {
    out.push_back(TreeSolution{{}, low_bits(state.topo().l2_per_tree())});
    return out;
  }
  L2Ctx ctx{&state, &view, tree, full_leaves, nodes_per_leaf, {}, {}, {},
            &out, &budget};
  // OR of the >= nodes_per_leaf free-count buckets, walked in ascending
  // leaf-index order — the same candidate order as a full leaf sweep.
  Mask eligible = 0;
  for (int c = nodes_per_leaf; c <= state.topo().nodes_per_leaf(); ++c) {
    eligible |= state.leaves_with_free_count(tree, c);
  }
  for_each_bit(eligible, [&](int li) {
    const LeafId l = state.topo().leaf_id(tree, li);
    const Mask up = view.leaf_up(l);
    if (popcount(up) < nodes_per_leaf) return;
    ctx.candidates.push_back(l);
    ctx.cand_up.push_back(up);
  });
  if (static_cast<int>(ctx.candidates.size()) >= full_leaves) {
    find_all_l2(ctx, 0, ~Mask{0});
  }
  return out;
}

/// A completed cross-subtree placement in the general (any nodes-per-leaf)
/// shape family.
struct GeneralPick {
  std::vector<TreeId> trees;
  std::vector<std::vector<LeafId>> tree_leaves;  // parallel to trees
  TreeId rem_tree = -1;
  std::vector<LeafId> rem_leaves;
  LeafId rem_leaf = -1;
  Mask s_set = 0;
  Mask sr_set = 0;
  std::vector<Mask> s_star;      // indexed by L2 index; nonzero for i in S
  std::vector<Mask> s_star_rem;  // remainder tree's subsets
};

struct L3Ctx {
  const ClusterState* state;
  const LinkView* view;
  ThreeLevelShape shape;
  std::vector<TreeId> cand_trees;
  std::vector<std::vector<TreeSolution>> cand_solutions;
  std::vector<std::size_t> chosen;  // indices into cand_trees
  std::vector<std::size_t> chosen_solution;
  std::uint64_t* budget;
  GeneralPick* out;
};

bool tree_in_chosen(const L3Ctx& ctx, TreeId t) {
  for (const std::size_t idx : ctx.chosen) {
    if (ctx.cand_trees[idx] == t) return true;
  }
  return false;
}

/// Count of L2 indices usable as members of S given the running masks.
int viable_count(const L3Ctx& ctx, Mask a, const std::vector<Mask>& d) {
  int count = 0;
  for_each_bit(a, [&](int i) {
    if (popcount(d[static_cast<std::size_t>(i)]) >= ctx.shape.leaves_per_tree) {
      ++count;
    }
  });
  return count;
}

bool complete_general(L3Ctx& ctx, Mask a, const std::vector<Mask>& d) {
  const auto& sh = ctx.shape;
  const FatTree& topo = ctx.state->topo();
  const int w2 = topo.l2_per_tree();
  GeneralPick& out = *ctx.out;

  out.trees.clear();
  out.tree_leaves.clear();
  for (std::size_t k = 0; k < ctx.chosen.size(); ++k) {
    out.trees.push_back(ctx.cand_trees[ctx.chosen[k]]);
    out.tree_leaves.push_back(
        ctx.cand_solutions[ctx.chosen[k]][ctx.chosen_solution[k]].leaves);
  }
  out.s_star.assign(static_cast<std::size_t>(w2), 0);
  out.s_star_rem.assign(static_cast<std::size_t>(w2), 0);

  if (!sh.has_remainder_tree()) {
    Mask viable = 0;
    for_each_bit(a, [&](int i) {
      if (popcount(d[static_cast<std::size_t>(i)]) >= sh.leaves_per_tree) {
        viable |= Mask{1} << i;
      }
    });
    if (popcount(viable) < sh.nodes_per_leaf) return false;
    out.s_set = lowest_n_bits(viable, sh.nodes_per_leaf);
    out.sr_set = 0;
    out.rem_tree = -1;
    out.rem_leaves.clear();
    out.rem_leaf = -1;
    for_each_bit(out.s_set, [&](int i) {
      out.s_star[static_cast<std::size_t>(i)] =
          lowest_n_bits(d[static_cast<std::size_t>(i)], sh.leaves_per_tree);
    });
    return true;
  }

  for (TreeId tr = 0; tr < topo.trees(); ++tr) {
    if (*ctx.budget == 0) return false;
    --*ctx.budget;
    if (tree_in_chosen(ctx, tr)) continue;

    auto rem_solutions = tree_solutions(*ctx.state, *ctx.view, tr,
                                        sh.rem_full_leaves, sh.nodes_per_leaf,
                                        *ctx.budget);
    for (const TreeSolution& rem_sol : rem_solutions) {
      // L2 indices usable for the remainder tree's full leaves.
      Mask viable_full = 0;
      for_each_bit(a & rem_sol.m, [&](int i) {
        const Mask di = d[static_cast<std::size_t>(i)];
        const Mask up_r = ctx.view->l2_up(tr, i);
        if (popcount(di) >= sh.leaves_per_tree &&
            popcount(di & up_r) >= sh.rem_full_leaves) {
          viable_full |= Mask{1} << i;
        }
      });
      if (popcount(viable_full) < sh.nodes_per_leaf) continue;

      LeafId rem_leaf = -1;
      Mask sr = 0;
      if (sh.rem_leaf_nodes > 0) {
        Mask viable_rem = 0;
        for_each_bit(viable_full, [&](int i) {
          const Mask di = d[static_cast<std::size_t>(i)];
          const Mask up_r = ctx.view->l2_up(tr, i);
          if (popcount(di & up_r) >= sh.rem_full_leaves + 1) {
            viable_rem |= Mask{1} << i;
          }
        });
        int best_free = std::numeric_limits<int>::max();
        Mask best_r = 0;
        for (int li = 0; li < topo.leaves_per_tree(); ++li) {
          const LeafId l = topo.leaf_id(tr, li);
          if (std::find(rem_sol.leaves.begin(), rem_sol.leaves.end(), l) !=
              rem_sol.leaves.end()) {
            continue;
          }
          const int free_count = ctx.state->free_node_count(l);
          if (free_count < sh.rem_leaf_nodes || free_count >= best_free) {
            continue;
          }
          const Mask r = ctx.view->leaf_up(l) & viable_rem;
          if (popcount(r) < sh.rem_leaf_nodes) continue;
          rem_leaf = l;
          best_free = free_count;
          best_r = r;
        }
        if (rem_leaf < 0) continue;
        sr = lowest_n_bits(best_r, sh.rem_leaf_nodes);
      }

      const Mask s =
          sr | lowest_n_bits(viable_full & ~sr, sh.nodes_per_leaf -
                                                    popcount(sr));
      out.s_set = s;
      out.sr_set = sr;
      out.rem_tree = tr;
      out.rem_leaves = rem_sol.leaves;
      out.rem_leaf = rem_leaf;
      for_each_bit(s, [&](int i) {
        const Mask di = d[static_cast<std::size_t>(i)];
        const Mask up_r = ctx.view->l2_up(tr, i);
        const int need_rem = sh.rem_full_leaves + (has_bit(sr, i) ? 1 : 0);
        const Mask srem = lowest_n_bits(di & up_r, need_rem);
        out.s_star_rem[static_cast<std::size_t>(i)] = srem;
        out.s_star[static_cast<std::size_t>(i)] =
            srem | lowest_n_bits(di & ~srem,
                                 sh.leaves_per_tree - need_rem);
      });
      return true;
    }
  }
  return false;
}

bool recurse_general(L3Ctx& ctx, std::size_t start, Mask a,
                     const std::vector<Mask>& d) {
  if (*ctx.budget == 0) return false;
  --*ctx.budget;
  if (static_cast<int>(ctx.chosen.size()) == ctx.shape.full_trees) {
    return complete_general(ctx, a, d);
  }
  const std::size_t need =
      static_cast<std::size_t>(ctx.shape.full_trees) - ctx.chosen.size();
  const int w2 = ctx.state->topo().l2_per_tree();
  std::vector<Mask> next(static_cast<std::size_t>(w2));
  for (std::size_t idx = start; idx + need <= ctx.cand_trees.size(); ++idx) {
    for (std::size_t si = 0; si < ctx.cand_solutions[idx].size(); ++si) {
      const Mask na = a & ctx.cand_solutions[idx][si].m;
      if (popcount(na) < ctx.shape.nodes_per_leaf) continue;
      const TreeId t = ctx.cand_trees[idx];
      for (int i = 0; i < w2; ++i) {
        next[static_cast<std::size_t>(i)] =
            d[static_cast<std::size_t>(i)] & ctx.view->l2_up(t, i);
      }
      if (viable_count(ctx, na, next) < ctx.shape.nodes_per_leaf) continue;
      ctx.chosen.push_back(idx);
      ctx.chosen_solution.push_back(si);
      if (recurse_general(ctx, idx + 1, na, next)) return true;
      ctx.chosen.pop_back();
      ctx.chosen_solution.pop_back();
      if (*ctx.budget == 0) return false;
    }
  }
  return false;
}

Allocation materialize_general(const ClusterState& state,
                               const ThreeLevelShape& shape,
                               const GeneralPick& pick, JobId job,
                               int requested, double demand) {
  Allocation a;
  a.job = job;
  a.requested_nodes = requested;
  a.bandwidth = demand;

  auto take_leaf = [&](LeafId l, int count, Mask wires) {
    append_free_nodes(state, l, count, &a.nodes);
    for_each_bit(wires, [&](int i) { a.leaf_wires.push_back(LeafWire{l, i}); });
  };

  for (std::size_t k = 0; k < pick.trees.size(); ++k) {
    for (const LeafId l : pick.tree_leaves[k]) {
      take_leaf(l, shape.nodes_per_leaf, pick.s_set);
    }
    for_each_bit(pick.s_set, [&](int i) {
      for_each_bit(pick.s_star[static_cast<std::size_t>(i)], [&](int j) {
        a.l2_wires.push_back(L2Wire{pick.trees[k], i, j});
      });
    });
  }
  if (pick.rem_tree >= 0) {
    for (const LeafId l : pick.rem_leaves) {
      take_leaf(l, shape.nodes_per_leaf, pick.s_set);
    }
    if (pick.rem_leaf >= 0) {
      take_leaf(pick.rem_leaf, shape.rem_leaf_nodes, pick.sr_set);
    }
    for_each_bit(pick.s_set, [&](int i) {
      for_each_bit(pick.s_star_rem[static_cast<std::size_t>(i)], [&](int j) {
        a.l2_wires.push_back(L2Wire{pick.rem_tree, i, j});
      });
    });
  }
  return a;
}

}  // namespace

std::optional<Allocation> LeastConstrainedAllocator::allocate(
    const ClusterState& state, const JobRequest& request,
    const AllocBudget& /*budget*/, SearchStats* stats) const {
  const FatTree& topo = state.topo();
  if (request.nodes < 1 || request.nodes > topo.total_nodes()) {
    return std::nullopt;
  }
  if (request.nodes > state.total_free_nodes()) return std::nullopt;

  const double demand = share_links_ ? request.bandwidth : 0.0;
  return search(state, demand, /*ignore_links=*/false, request, stats);
}

BlockedReason LeastConstrainedAllocator::diagnose(
    const ClusterState& state, const JobRequest& request) const {
  const FatTree& topo = state.topo();
  if (request.nodes < 1 || request.nodes > topo.total_nodes()) {
    return BlockedReason::kOversized;
  }
  if (request.nodes > state.total_free_nodes()) {
    return BlockedReason::kNodeShortage;
  }
  // Same probe loop, links (and demand) unconstrained: a placement found
  // here but not by allocate() was rejected by the link conditions.
  SearchStats stats;
  if (search(state, 0.0, /*ignore_links=*/true, request, &stats).has_value()) {
    return BlockedReason::kUplinkIsolation;
  }
  if (stats.budget_exhausted) return BlockedReason::kBudgetExhausted;
  return BlockedReason::kLeafSpread;
}

std::optional<Allocation> LeastConstrainedAllocator::search(
    const ClusterState& state, double demand, bool ignore_links,
    const JobRequest& request, SearchStats* stats) const {
  const FatTree& topo = state.topo();
  const LinkView view = ignore_links ? LinkView::links_unconstrained(&state)
                                     : LinkView{&state, demand};
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

  const auto shapes2 = two_level_shape_seq(request.nodes, topo);
  {
    TwoLevelPick pick;
    const CandidateScan r =
        scan_two_level(state, view, shapes2.span(), TreeOrder::kIndex, budget,
                       &pick);
    fold(r);
    if (r.winner >= 0) {
      record(false);
      return materialize(state, shapes2[static_cast<std::size_t>(r.winner)],
                         pick, request.id, request.nodes, demand);
    }
    if (r.exhausted) {
      record(true);
      return std::nullopt;
    }
  }

  const auto shapes3 = three_level_shape_seq(request.nodes, topo,
                                          /*restrict_full_leaves=*/false);
  {
    GeneralPick pick;
    const std::vector<Mask> all(static_cast<std::size_t>(topo.l2_per_tree()),
                                low_bits(topo.spines_per_group()));
    const CandidateScan r = scan_first_feasible(
        shapes3.size(), budget, [&](std::size_t si, std::uint64_t& b) {
          const ThreeLevelShape& shape = shapes3[si];
          // Node-count feasibility screen: enough trees must hold enough
          // sufficiently-free leaves before any link search is worth
          // running. Step-free, like the `continue`s it replaces.
          const std::span<const int> deep_row =
              state.leaves_with_at_least(shape.nodes_per_leaf);
          int full_capable = 0;
          int rem_capable = 0;
          for (TreeId t = 0; t < topo.trees(); ++t) {
            const int deep = deep_row[static_cast<std::size_t>(t)];
            if (deep >= shape.leaves_per_tree) ++full_capable;
            if (shape.has_remainder_tree() && deep >= shape.rem_full_leaves &&
                state.tree_free_nodes(t) >= shape.remainder_nodes()) {
              ++rem_capable;
            }
          }
          if (full_capable < shape.full_trees) return false;
          if (shape.has_remainder_tree() &&
              full_capable + rem_capable < shape.trees_touched()) {
            return false;
          }

          L3Ctx ctx{&state, &view, shape, {}, {}, {}, {}, &b, nullptr};
          for (TreeId t = 0; t < topo.trees(); ++t) {
            if (deep_row[static_cast<std::size_t>(t)] <
                shape.leaves_per_tree) {
              continue;
            }
            auto solutions = tree_solutions(state, view, t,
                                            shape.leaves_per_tree,
                                            shape.nodes_per_leaf, b);
            if (solutions.empty()) continue;
            ctx.cand_trees.push_back(t);
            ctx.cand_solutions.push_back(std::move(solutions));
          }
          if (static_cast<int>(ctx.cand_trees.size()) < shape.full_trees) {
            return false;
          }

          ctx.out = &pick;
          return recurse_general(ctx, 0, ~Mask{0}, all);
        });
    fold(r);
    if (r.winner >= 0) {
      record(false);
      return materialize_general(
          state, shapes3[static_cast<std::size_t>(r.winner)], pick,
          request.id, request.nodes, demand);
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
