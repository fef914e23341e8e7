#include "topology/cluster_state.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace jigsaw {

namespace {

/// Bit i set when vals[i] >= threshold (IEEE >=, so NaN never passes).
/// Precondition: n <= 64. The residual-bandwidth mask fill.
Mask mask_ge_rows(const double* vals, std::size_t n, double threshold) {
  Mask out = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (vals[i] >= threshold) out |= Mask{1} << i;
  }
  return out;
}

}  // namespace

ClusterState::ClusterState(const FatTree& topo, double usable_bandwidth)
    : topo_(&topo),
      usable_bandwidth_(usable_bandwidth),
      free_nodes_(static_cast<std::size_t>(topo.total_leaves()),
                  low_bits(topo.nodes_per_leaf())),
      free_leaf_up_(static_cast<std::size_t>(topo.total_leaves()),
                    low_bits(topo.l2_per_tree())),
      free_l2_up_(static_cast<std::size_t>(topo.total_l2()),
                  low_bits(topo.spines_per_group())),
      healthy_nodes_(static_cast<std::size_t>(topo.total_leaves()),
                     low_bits(topo.nodes_per_leaf())),
      healthy_leaf_up_(static_cast<std::size_t>(topo.total_leaves()),
                       low_bits(topo.l2_per_tree())),
      healthy_l2_up_(static_cast<std::size_t>(topo.total_l2()),
                     low_bits(topo.spines_per_group())),
      total_free_nodes_(topo.total_nodes()),
      leaf_free_(static_cast<std::size_t>(topo.total_leaves()),
                 topo.nodes_per_leaf()),
      tree_free_(static_cast<std::size_t>(topo.trees()),
                 topo.nodes_per_leaf() * topo.leaves_per_tree()),
      tree_fully_free_(static_cast<std::size_t>(topo.trees()),
                       topo.leaves_per_tree()),
      fully_free_mask_(static_cast<std::size_t>(topo.trees()),
                       low_bits(topo.leaves_per_tree())),
      leaf_bucket_(static_cast<std::size_t>(topo.trees()) *
                       (static_cast<std::size_t>(topo.nodes_per_leaf()) + 1),
                   0),
      at_least_(static_cast<std::size_t>(topo.trees()) *
                    (static_cast<std::size_t>(topo.nodes_per_leaf()) + 1),
                topo.leaves_per_tree()),
      l2_up_count_(static_cast<std::size_t>(topo.total_l2()),
                   topo.spines_per_group()) {
  // Every leaf starts in its tree's "all nodes free" bucket.
  const std::size_t stride =
      static_cast<std::size_t>(topo.nodes_per_leaf()) + 1;
  for (std::size_t t = 0; t < static_cast<std::size_t>(topo.trees()); ++t) {
    leaf_bucket_[t * stride + static_cast<std::size_t>(
                                  topo.nodes_per_leaf())] =
        low_bits(topo.leaves_per_tree());
  }
}

// ---- incremental index maintenance ------------------------------------

void ClusterState::refresh_leaf_index(LeafId l) {
  const int new_count = popcount(free_nodes_[l] & healthy_nodes_[l]);
  const int old_count = leaf_free_[l];
  if (new_count == old_count) return;
  const int m1 = topo_->nodes_per_leaf();
  const TreeId t = topo_->tree_of_leaf(l);
  const Mask li_bit = Mask{1} << topo_->leaf_index_in_tree(l);
  leaf_free_[l] = new_count;
  total_free_nodes_ += new_count - old_count;
  tree_free_[t] += new_count - old_count;
  const std::size_t base =
      static_cast<std::size_t>(t) * (static_cast<std::size_t>(m1) + 1);
  leaf_bucket_[base + static_cast<std::size_t>(old_count)] &= ~li_bit;
  leaf_bucket_[base + static_cast<std::size_t>(new_count)] |= li_bit;
  // The leaf enters (or leaves) the at-least-c tally for every c between
  // the two counts: |new - old| slots.
  const std::size_t trees = static_cast<std::size_t>(topo_->trees());
  const int step = new_count > old_count ? 1 : -1;
  for (int c = std::min(old_count, new_count) + 1;
       c <= std::max(old_count, new_count); ++c) {
    at_least_[static_cast<std::size_t>(c) * trees +
              static_cast<std::size_t>(t)] += step;
  }
  if (old_count == m1) {
    fully_free_mask_[t] &= ~li_bit;
    --tree_fully_free_[t];
  } else if (new_count == m1) {
    fully_free_mask_[t] |= li_bit;
    ++tree_fully_free_[t];
  }
}

void ClusterState::refresh_l2_index(std::size_t l2) {
  l2_up_count_[l2] = popcount(free_l2_up_[l2] & healthy_l2_up_[l2]);
}

// ---- journaling setters -------------------------------------------------

void ClusterState::journal(Field f, std::size_t index,
                           std::uint64_t old_bits) {
  if (frames_.empty()) return;
  journal_.push_back(
      UndoEntry{f, static_cast<std::uint32_t>(index), old_bits});
}

void ClusterState::set_free_nodes(LeafId l, Mask v) {
  journal(Field::kFreeNodes, static_cast<std::size_t>(l), free_nodes_[l]);
  free_nodes_[l] = v;
  refresh_leaf_index(l);
}

void ClusterState::set_healthy_nodes(LeafId l, Mask v) {
  journal(Field::kHealthyNodes, static_cast<std::size_t>(l),
          healthy_nodes_[l]);
  healthy_nodes_[l] = v;
  refresh_leaf_index(l);
}

void ClusterState::set_free_leaf_up(LeafId l, Mask v) {
  journal(Field::kFreeLeafUp, static_cast<std::size_t>(l), free_leaf_up_[l]);
  free_leaf_up_[l] = v;
}

void ClusterState::set_healthy_leaf_up(LeafId l, Mask v) {
  journal(Field::kHealthyLeafUp, static_cast<std::size_t>(l),
          healthy_leaf_up_[l]);
  healthy_leaf_up_[l] = v;
}

void ClusterState::set_free_l2_up(std::size_t l2, Mask v) {
  journal(Field::kFreeL2Up, l2, free_l2_up_[l2]);
  free_l2_up_[l2] = v;
  refresh_l2_index(l2);
}

void ClusterState::set_healthy_l2_up(std::size_t l2, Mask v) {
  journal(Field::kHealthyL2Up, l2, healthy_l2_up_[l2]);
  healthy_l2_up_[l2] = v;
  refresh_l2_index(l2);
}

void ClusterState::set_residual_leaf_up(std::size_t wire, double v) {
  journal(Field::kResidualLeafUp, wire,
          std::bit_cast<std::uint64_t>(residual_leaf_up_[wire]));
  residual_leaf_up_[wire] = v;
}

void ClusterState::set_residual_l2_up(std::size_t wire, double v) {
  journal(Field::kResidualL2Up, wire,
          std::bit_cast<std::uint64_t>(residual_l2_up_[wire]));
  residual_l2_up_[wire] = v;
}

// ---- transactions -------------------------------------------------------

std::size_t ClusterState::begin_txn() {
  frames_.push_back(
      TxnFrame{journal_.size(), failed_nodes_, failed_wires_, revision_});
  return frames_.size() - 1;
}

void ClusterState::restore(const UndoEntry& e) {
  const std::size_t i = e.index;
  switch (e.field) {
    case Field::kFreeNodes:
      free_nodes_[i] = e.old_bits;
      refresh_leaf_index(static_cast<LeafId>(i));
      break;
    case Field::kHealthyNodes:
      healthy_nodes_[i] = e.old_bits;
      refresh_leaf_index(static_cast<LeafId>(i));
      break;
    case Field::kFreeLeafUp:
      free_leaf_up_[i] = e.old_bits;
      break;
    case Field::kHealthyLeafUp:
      healthy_leaf_up_[i] = e.old_bits;
      break;
    case Field::kFreeL2Up:
      free_l2_up_[i] = e.old_bits;
      refresh_l2_index(i);
      break;
    case Field::kHealthyL2Up:
      healthy_l2_up_[i] = e.old_bits;
      refresh_l2_index(i);
      break;
    case Field::kResidualLeafUp:
      residual_leaf_up_[i] = std::bit_cast<double>(e.old_bits);
      break;
    case Field::kResidualL2Up:
      residual_l2_up_[i] = std::bit_cast<double>(e.old_bits);
      break;
  }
}

void ClusterState::rollback_txn(std::size_t frame) {
  if (frame + 1 != frames_.size()) {
    throw std::logic_error("Txn: non-LIFO rollback");
  }
  const TxnFrame& f = frames_.back();
  while (journal_.size() > f.journal_mark) {
    restore(journal_.back());
    journal_.pop_back();
  }
  failed_nodes_ = f.failed_nodes;
  failed_wires_ = f.failed_wires;
  revision_ = f.revision;
  frames_.pop_back();
}

void ClusterState::commit_txn(std::size_t frame) {
  if (frame + 1 != frames_.size()) {
    throw std::logic_error("Txn: non-LIFO commit");
  }
  frames_.pop_back();
  // Entries recorded under an outer Txn must survive for its rollback;
  // only the outermost commit may drop the journal.
  if (frames_.empty()) journal_.clear();
}

// ---- bandwidth tracking -------------------------------------------------

void ClusterState::ensure_bandwidth_tracking() {
  if (!residual_leaf_up_.empty()) return;
  residual_leaf_up_.assign(free_leaf_up_.size() *
                               static_cast<std::size_t>(topo_->l2_per_tree()),
                           usable_bandwidth_);
  residual_l2_up_.assign(free_l2_up_.size() * static_cast<std::size_t>(
                                                  topo_->spines_per_group()),
                         usable_bandwidth_);
}

double ClusterState::residual_leaf_up(LeafId l, int l2_index) const {
  if (!has_bit(healthy_leaf_up_[l], l2_index)) return 0.0;
  if (residual_leaf_up_.empty()) {
    return has_bit(free_leaf_up_[l], l2_index) ? usable_bandwidth_ : 0.0;
  }
  return residual_leaf_up_[static_cast<std::size_t>(l) *
                               static_cast<std::size_t>(topo_->l2_per_tree()) +
                           static_cast<std::size_t>(l2_index)];
}

double ClusterState::residual_l2_up(TreeId t, int l2_index,
                                    int spine_index) const {
  const std::size_t l2 = static_cast<std::size_t>(t * topo_->l2_per_tree() +
                                                  l2_index);
  if (!has_bit(healthy_l2_up_[l2], spine_index)) return 0.0;
  if (residual_l2_up_.empty()) {
    return has_bit(free_l2_up_[l2], spine_index) ? usable_bandwidth_ : 0.0;
  }
  return residual_l2_up_[l2 * static_cast<std::size_t>(
                                  topo_->spines_per_group()) +
                         static_cast<std::size_t>(spine_index)];
}

Mask ClusterState::leaf_up_with_bandwidth(LeafId l, double demand) const {
  // A wire owned exclusively has its free bit cleared; shared wires keep
  // the bit set and drain residual instead. Failed wires show neither —
  // free_leaf_up() is already free AND healthy, so the residual row can
  // be compared raw (stale values under cleared bits never surface).
  const Mask free = free_leaf_up(l);
  const double threshold = demand - 1e-9;
  if (residual_leaf_up_.empty()) {
    return usable_bandwidth_ >= threshold ? free : 0;
  }
  const std::size_t w2 = static_cast<std::size_t>(topo_->l2_per_tree());
  return free &
         mask_ge_rows(&residual_leaf_up_[static_cast<std::size_t>(l) * w2], w2,
                      threshold);
}

Mask ClusterState::l2_up_with_bandwidth(TreeId t, int l2_index,
                                        double demand) const {
  const Mask free = free_l2_up(t, l2_index);
  const double threshold = demand - 1e-9;
  if (residual_l2_up_.empty()) {
    return usable_bandwidth_ >= threshold ? free : 0;
  }
  const std::size_t l2 =
      static_cast<std::size_t>(t * topo_->l2_per_tree() + l2_index);
  const std::size_t sp = static_cast<std::size_t>(topo_->spines_per_group());
  return free & mask_ge_rows(&residual_l2_up_[l2 * sp], sp, threshold);
}

const char* ClusterState::check_apply(const Allocation& a) const {
  const bool shared = a.bandwidth > 0.0;
  std::vector<Mask> node_bits(free_nodes_.size(), 0);
  for (const NodeId n : a.nodes) {
    const LeafId l = topo_->leaf_of_node(n);
    const Mask bit = Mask{1} << topo_->node_index_in_leaf(n);
    if (!(free_nodes_[l] & bit) || (node_bits[l] & bit)) {
      return "apply: node already allocated";
    }
    if (!(healthy_nodes_[l] & bit)) return "apply: node failed";
    node_bits[l] |= bit;
  }
  for (const LeafWire& w : a.leaf_wires) {
    const Mask bit = Mask{1} << w.l2_index;
    if (!(free_leaf_up_[w.leaf] & bit)) {
      return "apply: leaf wire already allocated";
    }
    if (!(healthy_leaf_up_[w.leaf] & bit)) return "apply: leaf wire failed";
    if (shared &&
        residual_leaf_up(w.leaf, w.l2_index) < a.bandwidth - 1e-9) {
      return "apply: leaf wire lacks bandwidth";
    }
  }
  for (const L2Wire& w : a.l2_wires) {
    const std::size_t l2 = static_cast<std::size_t>(
        w.tree * topo_->l2_per_tree() + w.l2_index);
    const Mask bit = Mask{1} << w.spine_index;
    if (!(free_l2_up_[l2] & bit)) {
      return "apply: L2 wire already allocated";
    }
    if (!(healthy_l2_up_[l2] & bit)) return "apply: L2 wire failed";
    if (shared &&
        residual_l2_up(w.tree, w.l2_index, w.spine_index) <
            a.bandwidth - 1e-9) {
      return "apply: L2 wire lacks bandwidth";
    }
  }
  return nullptr;
}

void ClusterState::apply(const Allocation& a) {
  // Validate first so a failed apply leaves the state untouched (the
  // schedulers rely on throw-and-retry semantics in tests and tooling).
  const bool shared = a.bandwidth > 0.0;
  if (shared) ensure_bandwidth_tracking();
  if (const char* violation = check_apply(a); violation != nullptr) {
    throw std::logic_error(violation);
  }

  // Nodes arrive grouped by leaf (materialize emits them leaf-by-leaf);
  // batching each run into one masked write keeps the journal and the
  // index refreshes O(touched leaves) instead of O(nodes).
  for (std::size_t i = 0; i < a.nodes.size();) {
    const LeafId l = topo_->leaf_of_node(a.nodes[i]);
    Mask bits = 0;
    do {
      bits |= Mask{1} << topo_->node_index_in_leaf(a.nodes[i]);
      ++i;
    } while (i < a.nodes.size() && topo_->leaf_of_node(a.nodes[i]) == l);
    set_free_nodes(l, free_nodes_[l] & ~bits);
  }

  for (const LeafWire& w : a.leaf_wires) {
    if (shared) {
      const std::size_t wire =
          static_cast<std::size_t>(w.leaf) *
              static_cast<std::size_t>(topo_->l2_per_tree()) +
          static_cast<std::size_t>(w.l2_index);
      set_residual_leaf_up(wire, residual_leaf_up_[wire] - a.bandwidth);
    } else {
      set_free_leaf_up(w.leaf, free_leaf_up_[w.leaf] & ~(Mask{1} << w.l2_index));
    }
  }

  for (const L2Wire& w : a.l2_wires) {
    const std::size_t l2 =
        static_cast<std::size_t>(w.tree * topo_->l2_per_tree() + w.l2_index);
    if (shared) {
      const std::size_t wire =
          l2 * static_cast<std::size_t>(topo_->spines_per_group()) +
          static_cast<std::size_t>(w.spine_index);
      set_residual_l2_up(wire, residual_l2_up_[wire] - a.bandwidth);
    } else {
      set_free_l2_up(l2, free_l2_up_[l2] & ~(Mask{1} << w.spine_index));
    }
  }
  ++revision_;
}

void ClusterState::release(const Allocation& a) {
  ++revision_;
  for (std::size_t i = 0; i < a.nodes.size();) {
    const LeafId l = topo_->leaf_of_node(a.nodes[i]);
    Mask bits = 0;
    do {
      bits |= Mask{1} << topo_->node_index_in_leaf(a.nodes[i]);
      ++i;
    } while (i < a.nodes.size() && topo_->leaf_of_node(a.nodes[i]) == l);
    if (free_nodes_[l] & bits) {
      throw std::logic_error("release: node was not allocated");
    }
    // A node that failed while allocated returns its free bit but not
    // its capacity; the index refresh masks with health, so repair_node
    // adds it back exactly once.
    set_free_nodes(l, free_nodes_[l] | bits);
  }

  const bool shared = a.bandwidth > 0.0;
  for (const LeafWire& w : a.leaf_wires) {
    const Mask bit = Mask{1} << w.l2_index;
    if (shared) {
      const std::size_t wire =
          static_cast<std::size_t>(w.leaf) *
              static_cast<std::size_t>(topo_->l2_per_tree()) +
          static_cast<std::size_t>(w.l2_index);
      set_residual_leaf_up(wire, residual_leaf_up_[wire] + a.bandwidth);
    } else {
      if (free_leaf_up_[w.leaf] & bit) {
        throw std::logic_error("release: leaf wire was not allocated");
      }
      set_free_leaf_up(w.leaf, free_leaf_up_[w.leaf] | bit);
    }
  }
  for (const L2Wire& w : a.l2_wires) {
    const std::size_t l2 =
        static_cast<std::size_t>(w.tree * topo_->l2_per_tree() + w.l2_index);
    const Mask bit = Mask{1} << w.spine_index;
    if (shared) {
      const std::size_t wire =
          l2 * static_cast<std::size_t>(topo_->spines_per_group()) +
          static_cast<std::size_t>(w.spine_index);
      set_residual_l2_up(wire, residual_l2_up_[wire] + a.bandwidth);
    } else {
      if (free_l2_up_[l2] & bit) {
        throw std::logic_error("release: L2 wire was not allocated");
      }
      set_free_l2_up(l2, free_l2_up_[l2] | bit);
    }
  }
}

bool ClusterState::fail_node(NodeId n) {
  const LeafId l = topo_->leaf_of_node(n);
  const Mask bit = Mask{1} << topo_->node_index_in_leaf(n);
  if (!(healthy_nodes_[l] & bit)) return false;
  set_healthy_nodes(l, healthy_nodes_[l] & ~bit);
  ++failed_nodes_;
  ++revision_;
  return true;
}

bool ClusterState::repair_node(NodeId n) {
  const LeafId l = topo_->leaf_of_node(n);
  const Mask bit = Mask{1} << topo_->node_index_in_leaf(n);
  if (healthy_nodes_[l] & bit) return false;
  set_healthy_nodes(l, healthy_nodes_[l] | bit);
  --failed_nodes_;
  ++revision_;
  return true;
}

bool ClusterState::fail_leaf_up(LeafId l, int l2_index) {
  const Mask bit = Mask{1} << l2_index;
  if (!(healthy_leaf_up_[l] & bit)) return false;
  set_healthy_leaf_up(l, healthy_leaf_up_[l] & ~bit);
  ++failed_wires_;
  ++revision_;
  return true;
}

bool ClusterState::repair_leaf_up(LeafId l, int l2_index) {
  const Mask bit = Mask{1} << l2_index;
  if (healthy_leaf_up_[l] & bit) return false;
  set_healthy_leaf_up(l, healthy_leaf_up_[l] | bit);
  --failed_wires_;
  ++revision_;
  return true;
}

bool ClusterState::fail_l2_up(TreeId t, int l2_index, int spine_index) {
  const std::size_t l2 =
      static_cast<std::size_t>(t * topo_->l2_per_tree() + l2_index);
  const Mask bit = Mask{1} << spine_index;
  if (!(healthy_l2_up_[l2] & bit)) return false;
  set_healthy_l2_up(l2, healthy_l2_up_[l2] & ~bit);
  ++failed_wires_;
  ++revision_;
  return true;
}

bool ClusterState::repair_l2_up(TreeId t, int l2_index, int spine_index) {
  const std::size_t l2 =
      static_cast<std::size_t>(t * topo_->l2_per_tree() + l2_index);
  const Mask bit = Mask{1} << spine_index;
  if (healthy_l2_up_[l2] & bit) return false;
  set_healthy_l2_up(l2, healthy_l2_up_[l2] | bit);
  --failed_wires_;
  ++revision_;
  return true;
}

bool ClusterState::check_invariants() const {
  int recount = 0;
  int refailed_nodes = 0;
  int refailed_wires = 0;
  const int m1 = topo_->nodes_per_leaf();
  const Mask node_range = low_bits(m1);
  const Mask up_range = low_bits(topo_->l2_per_tree());
  const Mask spine_range = low_bits(topo_->spines_per_group());
  for (std::size_t l = 0; l < free_nodes_.size(); ++l) {
    if (free_nodes_[l] & ~node_range) return false;
    if (free_leaf_up_[l] & ~up_range) return false;
    if (healthy_nodes_[l] & ~node_range) return false;
    if (healthy_leaf_up_[l] & ~up_range) return false;
    const int count = popcount(free_nodes_[l] & healthy_nodes_[l]);
    if (leaf_free_[l] != count) return false;
    recount += count;
    refailed_nodes += popcount(node_range & ~healthy_nodes_[l]);
    refailed_wires += popcount(up_range & ~healthy_leaf_up_[l]);
  }
  for (std::size_t l2 = 0; l2 < free_l2_up_.size(); ++l2) {
    if (free_l2_up_[l2] & ~spine_range) return false;
    if (healthy_l2_up_[l2] & ~spine_range) return false;
    if (l2_up_count_[l2] != popcount(free_l2_up_[l2] & healthy_l2_up_[l2])) {
      return false;
    }
    refailed_wires += popcount(spine_range & ~healthy_l2_up_[l2]);
  }
  if (recount != total_free_nodes_) return false;
  if (refailed_nodes != failed_nodes_) return false;
  if (refailed_wires != failed_wires_) return false;
  // Tree-level indices against a from-scratch recomputation.
  const std::size_t stride = static_cast<std::size_t>(m1) + 1;
  for (TreeId t = 0; t < topo_->trees(); ++t) {
    int sum = 0;
    int fully = 0;
    Mask fully_mask = 0;
    std::vector<Mask> buckets(stride, 0);
    for (int li = 0; li < topo_->leaves_per_tree(); ++li) {
      const LeafId l = topo_->leaf_id(t, li);
      const int count = leaf_free_[l];
      sum += count;
      buckets[static_cast<std::size_t>(count)] |= Mask{1} << li;
      if (count == m1) {
        ++fully;
        fully_mask |= Mask{1} << li;
      }
    }
    if (tree_free_[t] != sum) return false;
    if (tree_fully_free_[t] != fully) return false;
    if (fully_free_mask_[t] != fully_mask) return false;
    int at_least = 0;
    for (int c = m1; c >= 0; --c) {
      const auto ci = static_cast<std::size_t>(c);
      if (leaf_bucket_[static_cast<std::size_t>(t) * stride + ci] !=
          buckets[ci]) {
        return false;
      }
      at_least += popcount(buckets[ci]);
      if (leaves_with_at_least(c)[static_cast<std::size_t>(t)] != at_least) {
        return false;
      }
    }
  }
  for (const double r : residual_leaf_up_) {
    if (r < -1e-6 || r > usable_bandwidth_ + 1e-6) return false;
  }
  for (const double r : residual_l2_up_) {
    if (r < -1e-6 || r > usable_bandwidth_ + 1e-6) return false;
  }
  return true;
}

// ---- snapshot access ----------------------------------------------------

ClusterState::RawState ClusterState::raw_state() const {
  if (in_txn()) {
    throw std::logic_error("ClusterState::raw_state inside a Txn");
  }
  RawState raw;
  raw.free_nodes = free_nodes_;
  raw.free_leaf_up = free_leaf_up_;
  raw.free_l2_up = free_l2_up_;
  raw.healthy_nodes = healthy_nodes_;
  raw.healthy_leaf_up = healthy_leaf_up_;
  raw.healthy_l2_up = healthy_l2_up_;
  raw.residual_leaf_up = residual_leaf_up_;
  raw.residual_l2_up = residual_l2_up_;
  raw.revision = revision_;
  return raw;
}

bool ClusterState::load_raw_state(const RawState& raw) {
  if (in_txn()) {
    throw std::logic_error("ClusterState::load_raw_state inside a Txn");
  }
  const std::size_t leaves = static_cast<std::size_t>(topo_->total_leaves());
  const std::size_t l2s = static_cast<std::size_t>(topo_->total_l2());
  const std::size_t leaf_wires =
      leaves * static_cast<std::size_t>(topo_->l2_per_tree());
  const std::size_t l2_wires =
      l2s * static_cast<std::size_t>(topo_->spines_per_group());
  if (raw.free_nodes.size() != leaves || raw.free_leaf_up.size() != leaves ||
      raw.free_l2_up.size() != l2s || raw.healthy_nodes.size() != leaves ||
      raw.healthy_leaf_up.size() != leaves ||
      raw.healthy_l2_up.size() != l2s) {
    return false;
  }
  if (!raw.residual_leaf_up.empty() &&
      (raw.residual_leaf_up.size() != leaf_wires ||
       raw.residual_l2_up.size() != l2_wires)) {
    return false;
  }
  if (raw.residual_leaf_up.empty() && !raw.residual_l2_up.empty()) {
    return false;
  }
  free_nodes_ = raw.free_nodes;
  free_leaf_up_ = raw.free_leaf_up;
  free_l2_up_ = raw.free_l2_up;
  healthy_nodes_ = raw.healthy_nodes;
  healthy_leaf_up_ = raw.healthy_leaf_up;
  healthy_l2_up_ = raw.healthy_l2_up;
  residual_leaf_up_ = raw.residual_leaf_up;
  residual_l2_up_ = raw.residual_l2_up;
  revision_ = raw.revision;

  // Recompute every derived index and counter from the masks. The
  // failed-resource counters count unhealthy bits inside the topology
  // range, exactly as check_invariants() re-derives them.
  const int m1 = topo_->nodes_per_leaf();
  const Mask node_range = low_bits(m1);
  const Mask up_range = low_bits(topo_->l2_per_tree());
  const Mask spine_range = low_bits(topo_->spines_per_group());
  const std::size_t stride = static_cast<std::size_t>(m1) + 1;
  total_free_nodes_ = 0;
  failed_nodes_ = 0;
  failed_wires_ = 0;
  std::fill(leaf_bucket_.begin(), leaf_bucket_.end(), Mask{0});
  std::fill(tree_free_.begin(), tree_free_.end(), 0);
  std::fill(tree_fully_free_.begin(), tree_fully_free_.end(), 0);
  std::fill(fully_free_mask_.begin(), fully_free_mask_.end(), Mask{0});
  for (std::size_t l = 0; l < leaves; ++l) {
    const int count = popcount(free_nodes_[l] & healthy_nodes_[l]);
    leaf_free_[l] = count;
    total_free_nodes_ += count;
    failed_nodes_ += popcount(node_range & ~healthy_nodes_[l]);
    failed_wires_ += popcount(up_range & ~healthy_leaf_up_[l]);
    const TreeId t = topo_->tree_of_leaf(static_cast<LeafId>(l));
    const Mask li_bit =
        Mask{1} << topo_->leaf_index_in_tree(static_cast<LeafId>(l));
    tree_free_[t] += count;
    leaf_bucket_[static_cast<std::size_t>(t) * stride +
                 static_cast<std::size_t>(count)] |= li_bit;
    if (count == m1) {
      ++tree_fully_free_[t];
      fully_free_mask_[t] |= li_bit;
    }
  }
  const std::size_t trees = static_cast<std::size_t>(topo_->trees());
  for (std::size_t t = 0; t < trees; ++t) {
    int at_least = 0;
    for (std::size_t c = stride; c-- > 0;) {
      at_least += popcount(leaf_bucket_[t * stride + c]);
      at_least_[c * trees + t] = at_least;
    }
  }
  for (std::size_t l2 = 0; l2 < l2s; ++l2) {
    l2_up_count_[l2] = popcount(free_l2_up_[l2] & healthy_l2_up_[l2]);
    failed_wires_ += popcount(spine_range & ~healthy_l2_up_[l2]);
  }
  return true;
}

}  // namespace jigsaw
