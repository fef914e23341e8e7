// Enumeration of legal allocation shapes (the arithmetic of §3.2).
//
// A job of N nodes placed inside one subtree has a *two-level shape*
//   N = LT * nL + nrL          (nrL < nL)
// — LT leaves holding nL nodes each plus an optional remainder leaf.
//
// A job spanning subtrees has a *three-level shape*
//   N = T * (LT * nL) + (LrT * nL + nrL)
// — T identical subtrees of LT leaves, plus an optional remainder subtree
// of LrT full-size leaves and an optional remainder leaf. Jigsaw restricts
// three-level shapes to nL == nodes-per-leaf (whole leaves except the
// remainder leaf, §4); the least-constrained scheme enumerates every nL.

#pragma once

#include <vector>

#include "topology/fat_tree.hpp"

namespace jigsaw {

struct TwoLevelShape {
  int full_leaves;     ///< LT
  int nodes_per_leaf;  ///< nL
  int remainder;       ///< nrL, in [0, nL)

  int total() const { return full_leaves * nodes_per_leaf + remainder; }
  int leaves_touched() const { return full_leaves + (remainder > 0 ? 1 : 0); }
};

struct ThreeLevelShape {
  int full_trees;       ///< T
  int leaves_per_tree;  ///< LT (full-size leaves per non-remainder tree)
  int nodes_per_leaf;   ///< nL
  int rem_full_leaves;  ///< LrT (full-size leaves in the remainder tree)
  int rem_leaf_nodes;   ///< nrL (nodes on the remainder leaf), in [0, nL)

  int nodes_per_tree() const { return leaves_per_tree * nodes_per_leaf; }
  int remainder_nodes() const {
    return rem_full_leaves * nodes_per_leaf + rem_leaf_nodes;
  }
  bool has_remainder_tree() const { return remainder_nodes() > 0; }
  int total() const {
    return full_trees * nodes_per_tree() + remainder_nodes();
  }
  int trees_touched() const {
    return full_trees + (has_remainder_tree() ? 1 : 0);
  }
};

/// All two-level shapes for `size` nodes on `topo`, densest first
/// (nL descending). The canonical order is already best fit first:
/// leaves_touched() = ceil(size / nL) never decreases along it, so a
/// first-feasible scan commits the feasible shape touching the fewest
/// leaves and links.
std::vector<TwoLevelShape> two_level_shapes(int size, const FatTree& topo);

/// All three-level shapes. With `restrict_full_leaves` (Jigsaw's §4
/// restriction) only nL == nodes_per_leaf shapes are produced; otherwise
/// every nL is enumerated (the least-constrained scheme). Shapes span at
/// least two subtrees — single-subtree placements are the two-level pass's
/// job. Ordered by nL descending, then leaves-per-tree descending
/// (fewest-subtrees first). The restricted family is best fit first:
/// every shape touches exactly ceil(size / m1) leaves and trees_touched()
/// = ceil(size / (LT * m1)) never decreases along the order. The general
/// family has no such order (a smaller nL can need fewer subtrees).
std::vector<ThreeLevelShape> three_level_shapes(int size, const FatTree& topo,
                                                bool restrict_full_leaves);

}  // namespace jigsaw
