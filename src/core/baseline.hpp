// Baseline: a traditional, network-oblivious scheduler.
//
// Allocates any free nodes (first fit in node-id order) and reserves no
// links; jobs share the interconnect and may interfere. This is the
// reference point for the paper's utilization, turnaround and makespan
// comparisons.

#pragma once

#include "core/allocator.hpp"

namespace jigsaw {

class BaselineAllocator final : public Allocator {
 public:
  std::string name() const override { return "Baseline"; }
  bool isolating() const override { return false; }

  using Allocator::allocate;
  /// O(nodes) first-fit.
  std::optional<Allocation> allocate(const ClusterState& state,
                                     const JobRequest& request,
                                     const AllocBudget& budget,
                                     SearchStats* stats) const override;
};

}  // namespace jigsaw
