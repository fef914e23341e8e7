#include "core/search.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace jigsaw {

namespace {

/// Words in a row of per-L2 masks, and leaves in a subtree: both are
/// bounded by FatTree's cap of 64 on m1 and m2.
constexpr std::size_t kMaxGroup = 64;
using Row = std::array<Mask, kMaxGroup>;

/// Lists whose length grows with the tree count, which FatTree does not
/// cap. One set per thread, reused across calls so that a warm search
/// allocates nothing; see the header comment for the one-search-per-
/// thread rule this implies.
struct Scratch {
  struct Pair {
    std::uint32_t shape;
    TreeId tree;
  };
  std::vector<std::uint64_t> tree_keys;  ///< scan_two_level's tree order
  std::vector<Pair> pairs;               ///< scan_two_level's probes
  std::vector<std::uint32_t> hostable;   ///< scan_three_level's probes
  std::vector<TreeId> cand_trees;        ///< three-level candidates
  std::vector<Mask> tree_up;             ///< w2 words per candidate
  std::vector<TreeId> chosen;            ///< three-level full trees
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

struct TwoLevelCtx {
  const ClusterState* state = nullptr;
  const LinkView* view = nullptr;
  TwoLevelShape shape{};
  TreeId tree = -1;
  bool needs_links = false;
  int count = 0;                          ///< candidates held below
  std::array<int, kMaxGroup> cand{};      ///< leaf indices, best fit first
  std::array<Mask, kMaxGroup> cand_up{};  ///< their available uplinks
  Mask chosen = 0;                        ///< leaf indices picked so far
  std::uint64_t* budget = nullptr;
  TwoLevelPick* out = nullptr;
};

/// Base case: LT full leaves chosen with common-uplink mask `inter`;
/// finish by selecting S (and a remainder leaf with Sr when required).
bool complete_two_level(TwoLevelCtx& ctx, Mask inter) {
  const auto& sh = ctx.shape;
  const FatTree& topo = ctx.state->topo();
  TwoLevelPick& out = *ctx.out;
  const LeafSet chosen{topo.leaf_id(ctx.tree, 0), ctx.chosen};
  if (sh.remainder == 0) {
    out.tree = ctx.tree;
    out.full_leaves = chosen;
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
  LeafId best = -1;
  Mask best_r = 0;
  for (int c = sh.remainder; c <= topo.nodes_per_leaf() && best < 0; ++c) {
    Mask bucket = ctx.state->leaves_with_free_count(ctx.tree, c) & ~ctx.chosen;
    while (bucket != 0) {
      const int li = lowest_bit(bucket);
      bucket &= bucket - 1;
      const LeafId l = topo.leaf_id(ctx.tree, li);
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
  out.full_leaves = chosen;
  out.remainder_leaf = best;
  out.s_set = s;
  out.sr_set = sr;
  return true;
}

bool recurse_two_level(TwoLevelCtx& ctx, int start, Mask inter) {
  if (*ctx.budget == 0) return false;
  --*ctx.budget;
  const int picked = popcount(ctx.chosen);
  if (picked == ctx.shape.full_leaves) return complete_two_level(ctx, inter);
  const int need = ctx.shape.full_leaves - picked;
  for (int idx = start; idx + need <= ctx.count; ++idx) {
    const Mask next = inter & ctx.cand_up[static_cast<std::size_t>(idx)];
    if (ctx.needs_links && popcount(next) < ctx.shape.nodes_per_leaf) continue;
    const Mask bit = Mask{1} << ctx.cand[static_cast<std::size_t>(idx)];
    ctx.chosen |= bit;
    if (recurse_two_level(ctx, idx + 1, next)) return true;
    ctx.chosen &= ~bit;
    if (*ctx.budget == 0) return false;
  }
  return false;
}

}  // namespace

bool find_two_level(const ClusterState& state, const LinkView& view,
                    const TwoLevelShape& shape, TreeId tree,
                    std::uint64_t& budget, TwoLevelPick* out) {
  const FatTree& topo = state.topo();
  TwoLevelCtx ctx;
  ctx.state = &state;
  ctx.view = &view;
  ctx.shape = shape;
  ctx.tree = tree;
  ctx.needs_links = shape.leaves_touched() > 1;
  ctx.budget = &budget;
  ctx.out = out;
  // Best fit: prefer the leaves with the fewest free nodes, so partially
  // used leaves fill up and pristine leaves stay available for the
  // whole-leaf three-level placements large jobs need. This ordering is
  // what keeps external fragmentation — and thus utilization — in check.
  // The per-(tree, count) buckets yield exactly the old
  // filter-then-stable-sort order (count ascending, leaf index ascending
  // within a count) without scanning leaves that lack capacity.
  for (int c = shape.nodes_per_leaf; c <= topo.nodes_per_leaf(); ++c) {
    for_each_bit(state.leaves_with_free_count(tree, c), [&](int li) {
      const Mask up = view.leaf_up(topo.leaf_id(tree, li));
      if (ctx.needs_links && popcount(up) < shape.nodes_per_leaf) return;
      ctx.cand[static_cast<std::size_t>(ctx.count)] = li;
      ctx.cand_up[static_cast<std::size_t>(ctx.count)] = up;
      ++ctx.count;
    });
  }
  if (ctx.count < shape.full_leaves) return false;
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

namespace {

/// Fill `keys` with the trees in `order`, one per entry, each tree id in
/// the low 32 bits. Best fit packs (free nodes, index) into the key, so a
/// plain sort gives trees_best_fit()'s order without its buffer.
void order_trees(const ClusterState& state, TreeOrder order,
                 std::vector<std::uint64_t>* keys) {
  const int trees = state.topo().trees();
  keys->resize(static_cast<std::size_t>(trees));
  for (TreeId t = 0; t < trees; ++t) {
    std::uint64_t key = static_cast<std::uint32_t>(t);
    if (order == TreeOrder::kBestFit) {
      key |= static_cast<std::uint64_t>(state.tree_free_nodes(t)) << 32;
    }
    (*keys)[static_cast<std::size_t>(t)] = key;
  }
  if (order == TreeOrder::kBestFit) std::sort(keys->begin(), keys->end());
}

}  // namespace

CandidateScan scan_two_level(const ClusterState& state, const LinkView& view,
                             std::span<const TwoLevelShape> shapes,
                             TreeOrder order, std::uint64_t& budget,
                             TwoLevelPick* pick) {
  // Capacity screen. find_two_level() needs full_leaves leaves holding at
  // least nodes_per_leaf free nodes, and turns a tree short of them away
  // before its first step. The maintained at-least tallies answer that
  // per tree, so such pairs never become probes: a shape no tree can
  // host costs one row scan, and the survivors keep their canonical
  // (shape-major, tree-order) positions. Step-neutral by construction.
  Scratch& sc = scratch();
  sc.pairs.clear();
  bool ordered = false;  // the tree order, built on first need
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const std::span<const int> row =
        state.leaves_with_at_least(shapes[s].nodes_per_leaf);
    const int need = shapes[s].full_leaves;
    if (*std::max_element(row.begin(), row.end()) < need) continue;
    if (!ordered) {
      order_trees(state, order, &sc.tree_keys);
      ordered = true;
    }
    for (const std::uint64_t key : sc.tree_keys) {
      const auto t = static_cast<TreeId>(key & 0xFFFFFFFFu);
      if (row[static_cast<std::size_t>(t)] >= need) {
        sc.pairs.push_back({static_cast<std::uint32_t>(s), t});
      }
    }
  }
  CandidateScan r = scan_first_feasible(
      sc.pairs.size(), budget, [&](std::size_t pos, std::uint64_t& b) {
        return find_two_level(state, view, shapes[sc.pairs[pos].shape],
                              sc.pairs[pos].tree, b, pick);
      });
  if (r.winner >= 0) {
    r.winner = static_cast<std::ptrdiff_t>(
        sc.pairs[static_cast<std::size_t>(r.winner)].shape);
  }
  return r;
}

namespace {

struct ThreeLevelCtx {
  const ClusterState* state;
  const LinkView* view;
  ThreeLevelShape shape;
  std::size_t w2;
  Scratch* sc;  ///< cand_trees, tree_up (w2 words each) and chosen
  std::uint64_t* budget;
  ThreeLevelPick* out;
};

/// Lowest `count` fully-available leaves of tree t, as leaf indices; 0
/// when scarce. Walks the fully-free-leaf index instead of scanning every
/// leaf; the per-leaf uplink check stays because a node-fully-free leaf
/// can still have failed (or bandwidth-exhausted) uplink wires.
Mask pick_full_leaves(const ClusterState& state, const LinkView& view,
                      TreeId t, int count) {
  const FatTree& topo = state.topo();
  const Mask all_up = low_bits(topo.l2_per_tree());
  Mask fully_free = state.fully_free_leaf_mask(t);
  Mask leaves = 0;
  int found = 0;
  while (fully_free != 0 && found < count) {
    const int li = lowest_bit(fully_free);
    fully_free &= fully_free - 1;
    if (view.leaf_up(topo.leaf_id(t, li)) == all_up) {
      leaves |= Mask{1} << li;
      ++found;
    }
  }
  return found < count ? Mask{0} : leaves;
}

/// Record the chosen full trees and their leaves, once the rest of the
/// placement has been found. Every candidate tree has LT fully-available
/// leaves, so each pick succeeds.
void fill_full_trees(ThreeLevelCtx& ctx) {
  const FatTree& topo = ctx.state->topo();
  ThreeLevelPick& out = *ctx.out;
  out.full_trees.assign(ctx.sc->chosen.begin(), ctx.sc->chosen.end());
  out.full_tree_leaves.clear();
  for (const TreeId t : ctx.sc->chosen) {
    out.full_tree_leaves.push_back(
        LeafSet{topo.leaf_id(t, 0),
                pick_full_leaves(*ctx.state, *ctx.view, t,
                                 ctx.shape.leaves_per_tree)});
  }
}

/// Try tree `tr` as the remainder tree given the running intersections.
bool try_remainder_tree(ThreeLevelCtx& ctx, TreeId tr, const Mask* inter) {
  const auto& sh = ctx.shape;
  const FatTree& topo = ctx.state->topo();
  const std::size_t w2 = ctx.w2;

  Row c{};
  for (std::size_t i = 0; i < w2; ++i) {
    c[i] = inter[i] & ctx.view->l2_up(tr, static_cast<int>(i));
    if (popcount(c[i]) < sh.rem_full_leaves) return false;
  }

  const Mask rem_leaves =
      pick_full_leaves(*ctx.state, *ctx.view, tr, sh.rem_full_leaves);
  if (sh.rem_full_leaves > 0 && rem_leaves == 0) return false;

  LeafId rem_leaf = -1;
  Mask sr = 0;
  if (sh.rem_leaf_nodes > 0) {
    // L2 indices that can absorb the extra uplink the remainder leaf adds.
    Mask eligible = 0;
    for (std::size_t i = 0; i < w2; ++i) {
      if (popcount(c[i]) >= sh.rem_full_leaves + 1) eligible |= Mask{1} << i;
    }
    int best_free = std::numeric_limits<int>::max();
    Mask best_r = 0;
    for (int li = 0; li < topo.leaves_per_tree(); ++li) {
      if (has_bit(rem_leaves, li)) continue;
      const LeafId l = topo.leaf_id(tr, li);
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
  out.rem_full_leaves = LeafSet{topo.leaf_id(tr, 0), rem_leaves};
  out.remainder_leaf = rem_leaf;
  out.sr_set = sr;
  out.s_star.assign(w2, 0);
  out.s_star_rem.assign(w2, 0);
  for (std::size_t i = 0; i < w2; ++i) {
    const int need_rem =
        sh.rem_full_leaves + (has_bit(sr, static_cast<int>(i)) ? 1 : 0);
    const Mask srem = lowest_n_bits(c[i], need_rem);
    out.s_star_rem[i] = srem;
    out.s_star[i] =
        srem | lowest_n_bits(inter[i] & ~srem, sh.leaves_per_tree - need_rem);
  }
  fill_full_trees(ctx);
  return true;
}

bool complete_three_level(ThreeLevelCtx& ctx, const Mask* inter) {
  const auto& sh = ctx.shape;
  const FatTree& topo = ctx.state->topo();

  if (!sh.has_remainder_tree()) {
    ThreeLevelPick& out = *ctx.out;
    out.remainder_tree = -1;
    out.rem_full_leaves = LeafSet{};
    out.remainder_leaf = -1;
    out.sr_set = 0;
    out.s_star.assign(ctx.w2, 0);
    out.s_star_rem.assign(ctx.w2, 0);
    for (std::size_t i = 0; i < ctx.w2; ++i) {
      out.s_star[i] = lowest_n_bits(inter[i], sh.leaves_per_tree);
    }
    fill_full_trees(ctx);
    return true;
  }

  const std::vector<TreeId>& chosen = ctx.sc->chosen;
  for (TreeId tr = 0; tr < topo.trees(); ++tr) {
    if (*ctx.budget == 0) return false;
    --*ctx.budget;
    if (std::find(chosen.begin(), chosen.end(), tr) != chosen.end()) continue;
    if (try_remainder_tree(ctx, tr, inter)) return true;
  }
  return false;
}

bool recurse_three_level(ThreeLevelCtx& ctx, std::size_t start,
                         const Mask* inter) {
  if (*ctx.budget == 0) return false;
  --*ctx.budget;
  std::vector<TreeId>& chosen = ctx.sc->chosen;
  if (static_cast<int>(chosen.size()) == ctx.shape.full_trees) {
    return complete_three_level(ctx, inter);
  }
  const std::size_t need =
      static_cast<std::size_t>(ctx.shape.full_trees) - chosen.size();
  const std::vector<TreeId>& cand_trees = ctx.sc->cand_trees;
  const Mask* tree_up = ctx.sc->tree_up.data();
  Row next{};
  for (std::size_t idx = start; idx + need <= cand_trees.size(); ++idx) {
    if (!and_rows_viable(inter, tree_up + idx * ctx.w2, next.data(), ctx.w2,
                         ctx.shape.leaves_per_tree)) {
      continue;
    }
    chosen.push_back(cand_trees[idx]);
    if (recurse_three_level(ctx, idx + 1, next.data())) return true;
    chosen.pop_back();
    if (*ctx.budget == 0) return false;
  }
  return false;
}

}  // namespace

bool find_three_level_full_leaves(const ClusterState& state,
                                  const LinkView& view,
                                  const ThreeLevelShape& shape,
                                  std::uint64_t& budget,
                                  ThreeLevelPick* out) {
  const FatTree& topo = state.topo();
  if (shape.nodes_per_leaf != topo.nodes_per_leaf()) {
    throw std::invalid_argument(
        "find_three_level_full_leaves: shape must use whole leaves");
  }
  const int w2 = topo.l2_per_tree();
  const auto words = static_cast<std::size_t>(w2);
  Scratch& sc = scratch();
  sc.cand_trees.clear();
  sc.tree_up.clear();
  sc.chosen.clear();
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
    const std::size_t row = sc.tree_up.size();
    sc.tree_up.resize(row + words);
    bool viable = true;
    for (int i = 0; i < w2 && viable; ++i) {
      const Mask up = view.l2_up(t, i);
      sc.tree_up[row + static_cast<std::size_t>(i)] = up;
      viable = popcount(up) >= shape.leaves_per_tree;
    }
    if (!viable) {
      sc.tree_up.resize(row);
      continue;
    }
    sc.cand_trees.push_back(t);
  }
  if (static_cast<int>(sc.cand_trees.size()) < shape.full_trees) return false;
  ThreeLevelCtx ctx{&state, &view, shape, words, &sc, &budget, out};
  Row all{};
  std::fill_n(all.begin(), words, low_bits(topo.spines_per_group()));
  return recurse_three_level(ctx, 0, all.data());
}

CandidateScan scan_three_level_full_leaves(
    const ClusterState& state, const LinkView& view,
    std::span<const ThreeLevelShape> shapes, std::uint64_t& budget,
    ThreeLevelPick* pick) {
  // Whole-leaf screen. Every leaf a full tree gives the shape is fully
  // free, and so is every whole leaf of the remainder tree, which must
  // be a further tree. trees_with[j] counts the trees holding at least j
  // fully-free leaves; one O(trees) read of the index fills it.
  const FatTree& topo = state.topo();
  std::array<int, kMaxGroup + 2> trees_with{};
  const std::size_t top = static_cast<std::size_t>(topo.leaves_per_tree()) + 1;
  for (TreeId t = 0; t < topo.trees(); ++t) {
    ++trees_with[static_cast<std::size_t>(state.fully_free_leaves(t))];
  }
  for (std::size_t j = top; j-- > 0;) trees_with[j] += trees_with[j + 1];
  // A shape needs T trees with LT fully-free leaves, which is exactly
  // the tree filter find_three_level_full_leaves() applies before its
  // first step. A remainder tree with LrT > 0 whole leaves also needs a
  // (T+1)-th tree with LrT of them (LrT < LT, so the full trees count
  // too); the search would spend steps before finding it missing.
  std::vector<std::uint32_t>& hostable = scratch().hostable;
  hostable.clear();
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
    hostable.push_back(static_cast<std::uint32_t>(s));
  }
  CandidateScan r = scan_first_feasible(
      hostable.size(), budget, [&](std::size_t pos, std::uint64_t& b) {
        return find_three_level_full_leaves(state, view,
                                            shapes[hostable[pos]], b, pick);
      });
  if (r.winner >= 0) {
    r.winner = static_cast<std::ptrdiff_t>(
        hostable[static_cast<std::size_t>(r.winner)]);
  }
  return r;
}

void append_free_nodes(const ClusterState& state, LeafId leaf, int count,
                       std::vector<NodeId>* out) {
  Mask free = state.free_nodes(leaf);
  for (int taken = 0; taken < count; ++taken) {
    if (free == 0) throw std::logic_error("append_free_nodes: leaf exhausted");
    out->push_back(state.topo().node_id(leaf, lowest_bit(free)));
    free &= free - 1;
  }
}

std::vector<NodeId> pick_free_nodes(const ClusterState& state, LeafId leaf,
                                    int count) {
  std::vector<NodeId> nodes;
  nodes.reserve(static_cast<std::size_t>(count));
  append_free_nodes(state, leaf, count, &nodes);
  return nodes;
}

Allocation materialize(const ClusterState& state, const TwoLevelShape& shape,
                       const TwoLevelPick& pick, JobId job, int requested,
                       double demand) {
  Allocation a;
  a.job = job;
  a.requested_nodes = requested;
  a.bandwidth = demand;
  a.nodes.reserve(static_cast<std::size_t>(shape.total()));
  a.leaf_wires.reserve(pick.full_leaves.size() *
                           static_cast<std::size_t>(popcount(pick.s_set)) +
                       static_cast<std::size_t>(popcount(pick.sr_set)));
  // Full leaves in the order the search chose them, which is its
  // candidate order: free count ascending, then leaf index.
  const FatTree& topo = state.topo();
  for (int c = shape.nodes_per_leaf; c <= topo.nodes_per_leaf(); ++c) {
    for_each_bit(state.leaves_with_free_count(pick.tree, c) &
                     pick.full_leaves.bits,
                 [&](int li) {
                   const LeafId l = topo.leaf_id(pick.tree, li);
                   append_free_nodes(state, l, shape.nodes_per_leaf,
                                     &a.nodes);
                   for_each_bit(pick.s_set, [&](int i) {
                     a.leaf_wires.push_back(LeafWire{l, i});
                   });
                 });
  }
  if (pick.remainder_leaf >= 0) {
    append_free_nodes(state, pick.remainder_leaf, shape.remainder, &a.nodes);
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

  std::size_t whole_leaves = pick.rem_full_leaves.size();
  for (const LeafSet& leaves : pick.full_tree_leaves) {
    whole_leaves += leaves.size();
  }
  std::size_t star_wires = 0;
  std::size_t rem_star_wires = 0;
  for (std::size_t i = 0; i < pick.s_star.size(); ++i) {
    star_wires += static_cast<std::size_t>(popcount(pick.s_star[i]));
    rem_star_wires += static_cast<std::size_t>(popcount(pick.s_star_rem[i]));
  }
  a.nodes.reserve(static_cast<std::size_t>(shape.total()));
  a.leaf_wires.reserve(whole_leaves * static_cast<std::size_t>(w2) +
                       static_cast<std::size_t>(popcount(pick.sr_set)));
  a.l2_wires.reserve(pick.full_trees.size() * star_wires + rem_star_wires);

  auto take_full_leaf = [&](LeafId l) {
    append_free_nodes(state, l, topo.nodes_per_leaf(), &a.nodes);
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
      append_free_nodes(state, pick.remainder_leaf, shape.rem_leaf_nodes,
                        &a.nodes);
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
