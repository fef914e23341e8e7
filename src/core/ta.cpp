#include "core/ta.hpp"

#include <algorithm>
#include <limits>

#include "core/search.hpp"

namespace jigsaw {

namespace {

/// A leaf is usable by a multi-leaf job when no other multi-leaf job has
/// implicitly reserved its uplinks (all uplink wires still free).
bool leaf_uplinks_free(const ClusterState& state, LeafId l) {
  return state.free_leaf_up(l) == low_bits(state.topo().l2_per_tree());
}

/// A subtree is usable by a cross-subtree job when no other cross-subtree
/// job has implicitly reserved its spine uplinks. Per-wire masks never
/// exceed low_bits(spines), so the batch AND equals `all` exactly when
/// every individual mask does.
bool tree_spines_free(const ClusterState& state, TreeId t) {
  return state.free_l2_up_all(t) == low_bits(state.topo().spines_per_group());
}

void take_nodes(const ClusterState& state, LeafId l, int count,
                Allocation* a) {
  Mask free = state.free_nodes(l);
  for (int k = 0; k < count; ++k) {
    const int bit = lowest_bit(free);
    a->nodes.push_back(state.topo().node_id(l, bit));
    free &= free - 1;
  }
}

void reserve_leaf_uplinks(const ClusterState& state, LeafId l, Allocation* a) {
  for (int i = 0; i < state.topo().l2_per_tree(); ++i) {
    a->leaf_wires.push_back(LeafWire{l, i});
  }
}

void reserve_tree_spines(const ClusterState& state, TreeId t, Allocation* a) {
  for (int i = 0; i < state.topo().l2_per_tree(); ++i) {
    for (int j = 0; j < state.topo().spines_per_group(); ++j) {
      a->l2_wires.push_back(L2Wire{t, i, j});
    }
  }
}

/// Leaves of tree t usable for a multi-leaf job, sorted by free-node count
/// descending so the job claims the fewest leaves (and so the fewest
/// implicitly-reserved uplinks).
std::vector<LeafId> usable_leaves_desc(const ClusterState& state, TreeId t) {
  // Count-descending bucket walk: identical order to collecting leaves in
  // ascending leaf-index order and stable-sorting by free count descending
  // (ties keep ascending index, matching for_each_bit's ascending walk).
  std::vector<LeafId> leaves;
  const FatTree& topo = state.topo();
  for (int c = topo.nodes_per_leaf(); c >= 1; --c) {
    for_each_bit(state.leaves_with_free_count(t, c), [&](int li) {
      const LeafId l = topo.leaf_id(t, li);
      if (leaf_uplinks_free(state, l)) leaves.push_back(l);
    });
  }
  return leaves;
}

/// Place `count` nodes on tree t's usable leaves; returns false when the
/// tree lacks capacity. Appends the touched leaves' implicit reservations.
bool fill_from_tree(const ClusterState& state, TreeId t, int count,
                    Allocation* a) {
  int remaining = count;
  for (const LeafId l : usable_leaves_desc(state, t)) {
    if (remaining == 0) break;
    const int take = std::min(remaining, state.free_node_count(l));
    take_nodes(state, l, take, a);
    reserve_leaf_uplinks(state, l, a);
    remaining -= take;
  }
  return remaining == 0;
}

}  // namespace

std::optional<Allocation> TaAllocator::allocate(const ClusterState& state,
                                                const JobRequest& request,
                                                const AllocBudget& latency,
                                                SearchStats* stats) const {
  const FatTree& topo = state.topo();
  if (request.nodes < 1 || request.nodes > topo.total_nodes()) {
    return std::nullopt;
  }
  const int m1 = topo.nodes_per_leaf();
  const int tree_capacity = m1 * topo.leaves_per_tree();
  // Only the intra-subtree tier has a candidate scan to bound; the other
  // two tiers are single O(leaves)/O(trees) sweeps cheaper than a clock
  // read per element.
  const AnytimeClock clock(latency);
  if (stats != nullptr && clock.active()) stats->anytime = true;

  Allocation a;
  a.job = request.id;
  a.requested_nodes = request.nodes;

  if (request.nodes <= m1) {
    // Intra-leaf job: best fit over every leaf whose uplinks are not
    // implicitly reserved by a multi-leaf job — TA avoids any placement
    // where contention is conceivable under an arbitrary routing, so a
    // claimed leaf is dedicated and its leftover nodes stay idle.
    LeafId best = -1;
    int best_free = std::numeric_limits<int>::max();
    for (LeafId l = 0; l < topo.total_leaves(); ++l) {
      if (stats != nullptr) ++stats->steps;
      if (!leaf_uplinks_free(state, l)) continue;
      const int free_count = state.free_node_count(l);
      if (free_count >= request.nodes && free_count < best_free) {
        best = l;
        best_free = free_count;
      }
    }
    if (best < 0) return std::nullopt;
    take_nodes(state, best, request.nodes, &a);
    return a;
  }

  if (request.nodes <= tree_capacity) {
    // Intra-subtree job: first subtree with enough usable capacity. TA
    // has no step budget; each tree probe charges exactly one step to a
    // synthetic budget that cannot exhaust, so the scan engine's ledger
    // reproduces the historical one-increment-per-tree-visited stats.
    // Anytime mode probes trees best-fit (fewest free nodes first): the
    // min-position winner is then the placement that packs tightest and
    // implicitly reserves the fewest pristine leaves.
    const std::vector<TreeId> best_fit =
        clock.active() ? trees_best_fit(state) : std::vector<TreeId>{};
    std::uint64_t budget = static_cast<std::uint64_t>(topo.trees()) + 1;
    const std::uint64_t full = budget;
    const CandidateScan r = scan_first_feasible(
        static_cast<std::size_t>(topo.trees()), budget, &clock,
        [&](std::size_t ti, std::uint64_t& b, const AnytimeClock*) {
          --b;
          const TreeId t =
              clock.active() ? best_fit[ti] : static_cast<TreeId>(ti);
          // Usable capacity never exceeds the tree's free-node index, so
          // a short tree can be skipped without the per-leaf uplink scan.
          if (state.tree_free_nodes(t) < request.nodes) return false;
          int capacity = 0;
          for (int li = 0; li < topo.leaves_per_tree(); ++li) {
            const LeafId l = topo.leaf_id(t, li);
            if (leaf_uplinks_free(state, l)) {
              capacity += state.free_node_count(l);
            }
          }
          if (capacity < request.nodes) return false;
          a.clear();
          a.job = request.id;
          a.requested_nodes = request.nodes;
          if (fill_from_tree(state, t, request.nodes, &a)) return true;
          a.clear();
          return false;
        });
    if (stats != nullptr) {
      stats->steps += full - budget;
      stats->probes += r.probes;
      stats->deadline_expired = stats->deadline_expired || r.expired;
      if (clock.active()) stats->slack_ns = clock.slack_ns();
    }
    if (r.winner >= 0) return a;
    return std::nullopt;
  }

  // Cross-subtree job: gather usable subtrees, fill greedily.
  int total = 0;
  std::vector<std::pair<TreeId, int>> usable;  // (tree, usable capacity)
  for (TreeId t = 0; t < topo.trees(); ++t) {
    if (stats != nullptr) ++stats->steps;
    if (state.tree_free_nodes(t) == 0) continue;  // capacity would be 0
    if (!tree_spines_free(state, t)) continue;
    int capacity = 0;
    for (int li = 0; li < topo.leaves_per_tree(); ++li) {
      const LeafId l = topo.leaf_id(t, li);
      if (leaf_uplinks_free(state, l)) capacity += state.free_node_count(l);
    }
    if (capacity == 0) continue;
    usable.emplace_back(t, capacity);
    total += capacity;
  }
  if (total < request.nodes) return std::nullopt;

  // Fill fullest-first so the job touches (and implicitly reserves the
  // spines of) as few subtrees as possible.
  std::stable_sort(usable.begin(), usable.end(),
                   [](const auto& x, const auto& y) {
                     return x.second > y.second;
                   });
  int remaining = request.nodes;
  for (const auto& [t, capacity] : usable) {
    if (remaining == 0) break;
    const int take = std::min(remaining, capacity);
    if (!fill_from_tree(state, t, take, &a)) {
      a.clear();
      return std::nullopt;  // defensive; capacity was just computed
    }
    reserve_tree_spines(state, t, &a);
    remaining -= take;
  }
  return a;
}

BlockedReason TaAllocator::diagnose(const ClusterState& state,
                                    const JobRequest& request) const {
  const FatTree& topo = state.topo();
  if (request.nodes < 1 || request.nodes > topo.total_nodes()) {
    return BlockedReason::kOversized;
  }
  if (request.nodes > state.total_free_nodes()) {
    return BlockedReason::kNodeShortage;
  }
  const int m1 = topo.nodes_per_leaf();
  const int tree_capacity = m1 * topo.leaves_per_tree();

  if (request.nodes <= m1) {
    // Intra-leaf tier: does any leaf hold enough free nodes once the
    // implicit uplink reservations are ignored?
    for (LeafId l = 0; l < topo.total_leaves(); ++l) {
      if (state.free_node_count(l) >= request.nodes) {
        return BlockedReason::kUplinkIsolation;
      }
    }
    return BlockedReason::kLeafSpread;
  }

  if (request.nodes <= tree_capacity) {
    // Intra-subtree tier: does any subtree hold enough free nodes once
    // the reserved-leaf exclusions are ignored?
    for (TreeId t = 0; t < topo.trees(); ++t) {
      if (state.tree_free_nodes(t) >= request.nodes) {
        return BlockedReason::kUplinkIsolation;
      }
    }
    return BlockedReason::kLeafSpread;
  }

  // Cross-subtree tier: raw free-node capacity suffices (the shortage
  // check above passed), so only the implicit spine/uplink reservations
  // can be excluding trees or leaves.
  return BlockedReason::kUplinkIsolation;
}

}  // namespace jigsaw
