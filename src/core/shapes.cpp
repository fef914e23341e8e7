#include "core/shapes.hpp"

#include <algorithm>
#include <stdexcept>

namespace jigsaw {

std::vector<TwoLevelShape> two_level_shapes(int size, const FatTree& topo) {
  if (size < 1) throw std::invalid_argument("job size must be positive");
  std::vector<TwoLevelShape> shapes;
  const int m1 = topo.nodes_per_leaf();
  const int m2 = topo.leaves_per_tree();
  for (int nl = std::min(size, m1); nl >= 1; --nl) {
    const TwoLevelShape shape{size / nl, nl, size % nl};
    if (shape.leaves_touched() <= m2) shapes.push_back(shape);
  }
  return shapes;
}

std::vector<ThreeLevelShape> three_level_shapes(int size, const FatTree& topo,
                                                bool restrict_full_leaves) {
  if (size < 1) throw std::invalid_argument("job size must be positive");
  std::vector<ThreeLevelShape> shapes;
  const int m1 = topo.nodes_per_leaf();
  const int m2 = topo.leaves_per_tree();
  const int m3 = topo.trees();
  const int nl_min = restrict_full_leaves ? m1 : 1;
  for (int nl = m1; nl >= nl_min; --nl) {
    for (int lt = m2; lt >= 1; --lt) {
      const int per_tree = lt * nl;
      const int full_trees = size / per_tree;
      if (full_trees < 1) continue;
      const int rem = size % per_tree;
      ThreeLevelShape shape{full_trees, lt, nl, rem / nl, rem % nl};
      if (shape.trees_touched() < 2) continue;  // single-subtree: two-level
      if (shape.trees_touched() > m3) continue;
      shapes.push_back(shape);
    }
  }
  return shapes;
}

}  // namespace jigsaw
