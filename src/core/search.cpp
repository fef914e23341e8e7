#include "core/search.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace jigsaw {

namespace {

bool is_chosen(const std::vector<LeafId>& chosen, LeafId l) {
  return std::find(chosen.begin(), chosen.end(), l) != chosen.end();
}

struct TwoLevelCtx {
  const ClusterState* state;
  const LinkView* view;
  TwoLevelShape shape;
  TreeId tree;
  bool needs_links;
  std::vector<LeafId> candidates;
  std::vector<Mask> cand_up;
  std::vector<LeafId> chosen;
  std::uint64_t* budget;
  TwoLevelPick* out;
  const AnytimeClock* clock = nullptr;
};

/// Base case: LT full leaves chosen with common-uplink mask `inter`;
/// finish by selecting S (and a remainder leaf with Sr when required).
bool complete_two_level(TwoLevelCtx& ctx, Mask inter) {
  const auto& sh = ctx.shape;
  TwoLevelPick& out = *ctx.out;
  if (sh.remainder == 0) {
    out.tree = ctx.tree;
    out.full_leaves = ctx.chosen;
    out.remainder_leaf = -1;
    out.sr_set = 0;
    out.s_set =
        ctx.needs_links ? lowest_n_bits(inter, sh.nodes_per_leaf) : Mask{0};
    return true;
  }

  // Remainder leaf: best fit (fewest free nodes that still suffice), so
  // partially-used leaves are consumed before pristine ones. The
  // per-(tree, count) buckets visit leaves count-ascending then
  // index-ascending — the same winner the full scan used to find.
  const FatTree& topo = ctx.state->topo();
  LeafId best = -1;
  Mask best_r = 0;
  for (int c = sh.remainder; c <= topo.nodes_per_leaf() && best < 0; ++c) {
    Mask bucket = ctx.state->leaves_with_free_count(ctx.tree, c);
    while (bucket != 0) {
      const int li = lowest_bit(bucket);
      bucket &= bucket - 1;
      const LeafId l = topo.leaf_id(ctx.tree, li);
      if (is_chosen(ctx.chosen, l)) continue;
      const Mask r = ctx.view->leaf_up(l) & inter;
      if (popcount(r) < sh.remainder) continue;
      best = l;
      best_r = r;
      break;
    }
  }
  if (best < 0) return false;

  const Mask sr = lowest_n_bits(best_r, sh.remainder);
  const Mask s =
      sr | lowest_n_bits(inter & ~sr, sh.nodes_per_leaf - sh.remainder);
  out.tree = ctx.tree;
  out.full_leaves = ctx.chosen;
  out.remainder_leaf = best;
  out.s_set = s;
  out.sr_set = sr;
  return true;
}

bool recurse_two_level(TwoLevelCtx& ctx, std::size_t start, Mask inter) {
  if (*ctx.budget == 0) return false;
  --*ctx.budget;
  if (anytime_interrupt(ctx.clock, *ctx.budget)) return false;
  if (static_cast<int>(ctx.chosen.size()) == ctx.shape.full_leaves) {
    return complete_two_level(ctx, inter);
  }
  const std::size_t need =
      static_cast<std::size_t>(ctx.shape.full_leaves) - ctx.chosen.size();
  for (std::size_t idx = start; idx + need <= ctx.candidates.size(); ++idx) {
    const Mask next = inter & ctx.cand_up[idx];
    if (ctx.needs_links && popcount(next) < ctx.shape.nodes_per_leaf) continue;
    ctx.chosen.push_back(ctx.candidates[idx]);
    if (recurse_two_level(ctx, idx + 1, next)) return true;
    ctx.chosen.pop_back();
    if (*ctx.budget == 0) return false;
  }
  return false;
}

}  // namespace

bool find_two_level(const ClusterState& state, const LinkView& view,
                    const TwoLevelShape& shape, TreeId tree,
                    std::uint64_t& budget, TwoLevelPick* out,
                    const AnytimeClock* clock) {
  const FatTree& topo = state.topo();
  TwoLevelCtx ctx{&state,  &view,  shape, tree, shape.leaves_touched() > 1,
                  {},      {},     {},    &budget, out, clock};
  // Best fit: prefer the leaves with the fewest free nodes, so partially
  // used leaves fill up and pristine leaves stay available for the
  // whole-leaf three-level placements large jobs need. This ordering is
  // what keeps external fragmentation — and thus utilization — in check.
  // The per-(tree, count) buckets yield exactly the old
  // filter-then-stable-sort order (count ascending, leaf index ascending
  // within a count) without scanning leaves that lack capacity.
  ctx.candidates.reserve(static_cast<std::size_t>(topo.leaves_per_tree()));
  ctx.cand_up.reserve(static_cast<std::size_t>(topo.leaves_per_tree()));
  for (int c = shape.nodes_per_leaf; c <= topo.nodes_per_leaf(); ++c) {
    for_each_bit(state.leaves_with_free_count(tree, c), [&](int li) {
      const LeafId l = topo.leaf_id(tree, li);
      const Mask up = view.leaf_up(l);
      if (ctx.needs_links && popcount(up) < shape.nodes_per_leaf) return;
      ctx.candidates.push_back(l);
      ctx.cand_up.push_back(up);
    });
  }
  if (static_cast<int>(ctx.candidates.size()) < shape.full_leaves) {
    return false;
  }
  ctx.chosen.reserve(static_cast<std::size_t>(shape.full_leaves));
  return recurse_two_level(ctx, 0, ~Mask{0});
}

std::vector<TreeId> trees_best_fit(const ClusterState& state) {
  std::vector<TreeId> order(static_cast<std::size_t>(state.topo().trees()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](TreeId a, TreeId b) {
    return state.tree_free_nodes(a) < state.tree_free_nodes(b);
  });
  return order;
}

CandidateScan scan_two_level(const ClusterState& state, const LinkView& view,
                             std::span<const TwoLevelShape> shapes,
                             TreeOrder order, std::uint64_t& budget,
                             const AnytimeClock* clock, TwoLevelPick* pick) {
  // Capacity screen. find_two_level() needs full_leaves leaves holding at
  // least nodes_per_leaf free nodes, and turns a tree short of them away
  // before its first step. The maintained at-least tallies answer that
  // per tree, so such pairs never become probes: a shape no tree can
  // host costs one row scan, and the survivors keep their canonical
  // (shape-major, tree-order) positions. Step-neutral by construction.
  struct Pair {
    std::size_t shape;
    TreeId tree;
  };
  std::vector<Pair> pairs;
  std::vector<TreeId> trees;  // the tree order, built on first need
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const std::span<const int> row =
        state.leaves_with_at_least(shapes[s].nodes_per_leaf);
    const int need = shapes[s].full_leaves;
    if (*std::max_element(row.begin(), row.end()) < need) continue;
    if (trees.empty()) {
      if (order == TreeOrder::kBestFit) {
        trees = trees_best_fit(state);
      } else {
        trees.resize(row.size());
        std::iota(trees.begin(), trees.end(), 0);
      }
    }
    for (const TreeId t : trees) {
      if (row[static_cast<std::size_t>(t)] >= need) pairs.push_back({s, t});
    }
  }
  CandidateScan r = scan_first_feasible(
      pairs.size(), budget, clock,
      [&](std::size_t pos, std::uint64_t& b, const AnytimeClock* c) {
        return find_two_level(state, view, shapes[pairs[pos].shape],
                              pairs[pos].tree, b, pick, c);
      });
  if (r.winner >= 0) {
    r.winner = static_cast<std::ptrdiff_t>(
        pairs[static_cast<std::size_t>(r.winner)].shape);
  }
  return r;
}

namespace {

struct ThreeLevelCtx {
  const ClusterState* state;
  const LinkView* view;
  ThreeLevelShape shape;
  std::vector<TreeId> cand_trees;
  std::vector<std::vector<Mask>> tree_up;  ///< per candidate, per L2 index
  std::vector<TreeId> chosen;
  std::uint64_t* budget;
  ThreeLevelPick* out;
  const AnytimeClock* clock = nullptr;
};

/// Lowest `count` fully-available leaves of tree t; empty when scarce.
/// Walks the fully-free-leaf index instead of scanning every leaf; the
/// per-leaf uplink check stays because a node-fully-free leaf can still
/// have failed (or bandwidth-exhausted) uplink wires.
std::vector<LeafId> pick_full_leaves(const ClusterState& state,
                                     const LinkView& view, TreeId t,
                                     int count) {
  std::vector<LeafId> leaves;
  const FatTree& topo = state.topo();
  const Mask all_up = low_bits(topo.l2_per_tree());
  Mask fully_free = state.fully_free_leaf_mask(t);
  while (fully_free != 0 && static_cast<int>(leaves.size()) < count) {
    const int li = lowest_bit(fully_free);
    fully_free &= fully_free - 1;
    const LeafId l = topo.leaf_id(t, li);
    if (view.leaf_up(l) == all_up) leaves.push_back(l);
  }
  if (static_cast<int>(leaves.size()) < count) leaves.clear();
  return leaves;
}

/// Try tree `tr` as the remainder tree given the running intersections.
bool try_remainder_tree(ThreeLevelCtx& ctx, TreeId tr,
                        const std::vector<Mask>& inter) {
  const auto& sh = ctx.shape;
  const FatTree& topo = ctx.state->topo();
  const int w2 = topo.l2_per_tree();

  std::vector<Mask> c(static_cast<std::size_t>(w2));
  for (int i = 0; i < w2; ++i) {
    c[static_cast<std::size_t>(i)] =
        inter[static_cast<std::size_t>(i)] & ctx.view->l2_up(tr, i);
    if (popcount(c[static_cast<std::size_t>(i)]) < sh.rem_full_leaves) {
      return false;
    }
  }

  auto rem_leaves = pick_full_leaves(*ctx.state, *ctx.view, tr,
                                     sh.rem_full_leaves);
  if (sh.rem_full_leaves > 0 && rem_leaves.empty()) return false;

  LeafId rem_leaf = -1;
  Mask sr = 0;
  if (sh.rem_leaf_nodes > 0) {
    // L2 indices that can absorb the extra uplink the remainder leaf adds.
    Mask eligible = 0;
    for (int i = 0; i < w2; ++i) {
      if (popcount(c[static_cast<std::size_t>(i)]) >= sh.rem_full_leaves + 1) {
        eligible |= Mask{1} << i;
      }
    }
    int best_free = std::numeric_limits<int>::max();
    Mask best_r = 0;
    for (int li = 0; li < topo.leaves_per_tree(); ++li) {
      const LeafId l = topo.leaf_id(tr, li);
      if (is_chosen(rem_leaves, l)) continue;
      const int free_count = ctx.state->free_node_count(l);
      if (free_count < sh.rem_leaf_nodes || free_count >= best_free) continue;
      const Mask r = ctx.view->leaf_up(l) & eligible;
      if (popcount(r) < sh.rem_leaf_nodes) continue;
      rem_leaf = l;
      best_free = free_count;
      best_r = r;
    }
    if (rem_leaf < 0) return false;
    sr = lowest_n_bits(best_r, sh.rem_leaf_nodes);
  }

  ThreeLevelPick& out = *ctx.out;
  out.remainder_tree = tr;
  out.rem_full_leaves = std::move(rem_leaves);
  out.remainder_leaf = rem_leaf;
  out.sr_set = sr;
  out.s_star.assign(static_cast<std::size_t>(w2), 0);
  out.s_star_rem.assign(static_cast<std::size_t>(w2), 0);
  for (int i = 0; i < w2; ++i) {
    const int need_rem = sh.rem_full_leaves + (has_bit(sr, i) ? 1 : 0);
    const Mask srem = lowest_n_bits(c[static_cast<std::size_t>(i)], need_rem);
    out.s_star_rem[static_cast<std::size_t>(i)] = srem;
    out.s_star[static_cast<std::size_t>(i)] =
        srem | lowest_n_bits(inter[static_cast<std::size_t>(i)] & ~srem,
                             sh.leaves_per_tree - need_rem);
  }
  return true;
}

bool complete_three_level(ThreeLevelCtx& ctx, const std::vector<Mask>& inter) {
  const auto& sh = ctx.shape;
  const FatTree& topo = ctx.state->topo();
  ThreeLevelPick& out = *ctx.out;

  out.full_trees = ctx.chosen;
  out.full_tree_leaves.clear();
  for (const TreeId t : ctx.chosen) {
    out.full_tree_leaves.push_back(
        pick_full_leaves(*ctx.state, *ctx.view, t, sh.leaves_per_tree));
    if (out.full_tree_leaves.back().empty()) return false;  // raced; defensive
  }

  if (!sh.has_remainder_tree()) {
    const int w2 = topo.l2_per_tree();
    out.remainder_tree = -1;
    out.rem_full_leaves.clear();
    out.remainder_leaf = -1;
    out.sr_set = 0;
    out.s_star.assign(static_cast<std::size_t>(w2), 0);
    out.s_star_rem.assign(static_cast<std::size_t>(w2), 0);
    for (int i = 0; i < w2; ++i) {
      out.s_star[static_cast<std::size_t>(i)] =
          lowest_n_bits(inter[static_cast<std::size_t>(i)],
                        sh.leaves_per_tree);
    }
    return true;
  }

  for (TreeId tr = 0; tr < topo.trees(); ++tr) {
    if (*ctx.budget == 0) return false;
    --*ctx.budget;
    if (anytime_interrupt(ctx.clock, *ctx.budget)) return false;
    if (std::find(ctx.chosen.begin(), ctx.chosen.end(), tr) !=
        ctx.chosen.end()) {
      continue;
    }
    if (try_remainder_tree(ctx, tr, inter)) return true;
  }
  return false;
}

bool recurse_three_level(ThreeLevelCtx& ctx, std::size_t start,
                         const std::vector<Mask>& inter) {
  if (*ctx.budget == 0) return false;
  --*ctx.budget;
  if (anytime_interrupt(ctx.clock, *ctx.budget)) return false;
  if (static_cast<int>(ctx.chosen.size()) == ctx.shape.full_trees) {
    return complete_three_level(ctx, inter);
  }
  const std::size_t need =
      static_cast<std::size_t>(ctx.shape.full_trees) - ctx.chosen.size();
  const int w2 = ctx.state->topo().l2_per_tree();
  std::vector<Mask> next(static_cast<std::size_t>(w2));
  for (std::size_t idx = start; idx + need <= ctx.cand_trees.size(); ++idx) {
    if (!and_rows_viable(inter.data(), ctx.tree_up[idx].data(), next.data(),
                         static_cast<std::size_t>(w2),
                         ctx.shape.leaves_per_tree)) {
      continue;
    }
    ctx.chosen.push_back(ctx.cand_trees[idx]);
    if (recurse_three_level(ctx, idx + 1, next)) return true;
    ctx.chosen.pop_back();
    if (*ctx.budget == 0) return false;
  }
  return false;
}

}  // namespace

bool find_three_level_full_leaves(const ClusterState& state,
                                  const LinkView& view,
                                  const ThreeLevelShape& shape,
                                  std::uint64_t& budget,
                                  ThreeLevelPick* out,
                                  const AnytimeClock* clock) {
  const FatTree& topo = state.topo();
  if (shape.nodes_per_leaf != topo.nodes_per_leaf()) {
    throw std::invalid_argument(
        "find_three_level_full_leaves: shape must use whole leaves");
  }
  ThreeLevelCtx ctx{&state, &view, shape, {}, {}, {}, &budget, out, clock};
  const int w2 = topo.l2_per_tree();
  const Mask all_leaf_up = low_bits(w2);
  for (TreeId t = 0; t < topo.trees(); ++t) {
    // Index prescreen: fully-available leaves are a subset of node-fully-
    // free leaves, so a tree failing the cheap count can never qualify.
    if (state.fully_free_leaves(t) < shape.leaves_per_tree) continue;
    int full = 0;
    for_each_bit(state.fully_free_leaf_mask(t), [&](int li) {
      if (view.leaf_up(topo.leaf_id(t, li)) == all_leaf_up) ++full;
    });
    if (full < shape.leaves_per_tree) continue;
    std::vector<Mask> up(static_cast<std::size_t>(w2));
    bool viable = true;
    for (int i = 0; i < w2 && viable; ++i) {
      up[static_cast<std::size_t>(i)] = view.l2_up(t, i);
      viable = popcount(up[static_cast<std::size_t>(i)]) >=
               shape.leaves_per_tree;
    }
    if (!viable) continue;
    ctx.cand_trees.push_back(t);
    ctx.tree_up.push_back(std::move(up));
  }
  if (static_cast<int>(ctx.cand_trees.size()) < shape.full_trees) return false;
  ctx.chosen.reserve(static_cast<std::size_t>(shape.full_trees));
  const std::vector<Mask> all(static_cast<std::size_t>(w2),
                              low_bits(topo.spines_per_group()));
  return recurse_three_level(ctx, 0, all);
}

CandidateScan scan_three_level_full_leaves(
    const ClusterState& state, const LinkView& view,
    std::span<const ThreeLevelShape> shapes, std::uint64_t& budget,
    const AnytimeClock* clock, ThreeLevelPick* pick) {
  // Whole-leaf screen. Every leaf a full tree gives the shape is fully
  // free, and so is every whole leaf of the remainder tree, which must
  // be a further tree. trees_with[j] counts the trees holding at least j
  // fully-free leaves; one O(trees) read of the index fills it.
  const FatTree& topo = state.topo();
  std::vector<int> trees_with(
      static_cast<std::size_t>(topo.leaves_per_tree()) + 2, 0);
  for (TreeId t = 0; t < topo.trees(); ++t) {
    ++trees_with[static_cast<std::size_t>(state.fully_free_leaves(t))];
  }
  for (std::size_t j = trees_with.size() - 1; j-- > 0;) {
    trees_with[j] += trees_with[j + 1];
  }
  // A shape needs T trees with LT fully-free leaves, which is exactly
  // the tree filter find_three_level_full_leaves() applies before its
  // first step. A remainder tree with LrT > 0 whole leaves also needs a
  // (T+1)-th tree with LrT of them (LrT < LT, so the full trees count
  // too); the search would spend steps before finding it missing.
  std::vector<std::size_t> hostable;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const ThreeLevelShape& sh = shapes[s];
    if (trees_with[static_cast<std::size_t>(sh.leaves_per_tree)] <
        sh.full_trees) {
      continue;
    }
    if (sh.rem_full_leaves > 0 &&
        trees_with[static_cast<std::size_t>(sh.rem_full_leaves)] <=
            sh.full_trees) {
      continue;
    }
    hostable.push_back(s);
  }
  CandidateScan r = scan_first_feasible(
      hostable.size(), budget, clock,
      [&](std::size_t pos, std::uint64_t& b, const AnytimeClock* c) {
        return find_three_level_full_leaves(state, view,
                                            shapes[hostable[pos]], b, pick, c);
      });
  if (r.winner >= 0) {
    r.winner = static_cast<std::ptrdiff_t>(
        hostable[static_cast<std::size_t>(r.winner)]);
  }
  return r;
}

std::vector<NodeId> pick_free_nodes(const ClusterState& state, LeafId leaf,
                                    int count) {
  std::vector<NodeId> nodes;
  nodes.reserve(static_cast<std::size_t>(count));
  Mask free = state.free_nodes(leaf);
  for (int taken = 0; taken < count; ++taken) {
    if (free == 0) throw std::logic_error("pick_free_nodes: leaf exhausted");
    const int bit = lowest_bit(free);
    nodes.push_back(state.topo().node_id(leaf, bit));
    free &= free - 1;
  }
  return nodes;
}

Allocation materialize(const ClusterState& state, const TwoLevelShape& shape,
                       const TwoLevelPick& pick, JobId job, int requested,
                       double demand) {
  Allocation a;
  a.job = job;
  a.requested_nodes = requested;
  a.bandwidth = demand;
  for (const LeafId l : pick.full_leaves) {
    for (const NodeId n : pick_free_nodes(state, l, shape.nodes_per_leaf)) {
      a.nodes.push_back(n);
    }
    for_each_bit(pick.s_set,
                 [&](int i) { a.leaf_wires.push_back(LeafWire{l, i}); });
  }
  if (pick.remainder_leaf >= 0) {
    for (const NodeId n :
         pick_free_nodes(state, pick.remainder_leaf, shape.remainder)) {
      a.nodes.push_back(n);
    }
    for_each_bit(pick.sr_set, [&](int i) {
      a.leaf_wires.push_back(LeafWire{pick.remainder_leaf, i});
    });
  }
  return a;
}

Allocation materialize(const ClusterState& state, const ThreeLevelShape& shape,
                       const ThreeLevelPick& pick, JobId job, int requested,
                       double demand) {
  Allocation a;
  a.job = job;
  a.requested_nodes = requested;
  a.bandwidth = demand;
  const FatTree& topo = state.topo();
  const int w2 = topo.l2_per_tree();
  const Mask all_up = low_bits(w2);

  auto take_full_leaf = [&](LeafId l) {
    for (const NodeId n : pick_free_nodes(state, l, topo.nodes_per_leaf())) {
      a.nodes.push_back(n);
    }
    for_each_bit(all_up,
                 [&](int i) { a.leaf_wires.push_back(LeafWire{l, i}); });
  };

  for (std::size_t ti = 0; ti < pick.full_trees.size(); ++ti) {
    const TreeId t = pick.full_trees[ti];
    for (const LeafId l : pick.full_tree_leaves[ti]) take_full_leaf(l);
    for (int i = 0; i < w2; ++i) {
      for_each_bit(pick.s_star[static_cast<std::size_t>(i)], [&](int j) {
        a.l2_wires.push_back(L2Wire{t, i, j});
      });
    }
  }

  if (pick.remainder_tree >= 0) {
    for (const LeafId l : pick.rem_full_leaves) take_full_leaf(l);
    if (pick.remainder_leaf >= 0) {
      for (const NodeId n :
           pick_free_nodes(state, pick.remainder_leaf, shape.rem_leaf_nodes)) {
        a.nodes.push_back(n);
      }
      for_each_bit(pick.sr_set, [&](int i) {
        a.leaf_wires.push_back(LeafWire{pick.remainder_leaf, i});
      });
    }
    for (int i = 0; i < w2; ++i) {
      for_each_bit(pick.s_star_rem[static_cast<std::size_t>(i)], [&](int j) {
        a.l2_wires.push_back(L2Wire{pick.remainder_tree, i, j});
      });
    }
  }
  return a;
}

}  // namespace jigsaw
