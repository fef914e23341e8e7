// The Jigsaw allocator (Algorithm 1 of the paper).
//
// Jigsaw allocates isolated, full-bandwidth partitions:
//   1. It first searches every subtree for a two-level placement,
//      densest decomposition (nodes-per-leaf) first.
//   2. Failing that, it searches for a three-level placement restricted to
//      whole leaves (every allocated leaf completely owned by the job,
//      except a single remainder leaf in the remainder tree). The
//      restriction is what keeps the search fast and external
//      fragmentation low (§4).
//
// Every allocation Jigsaw returns satisfies the formal conditions of §3.2
// and is therefore rearrangeable non-blocking (Appendix A); tests verify
// this via core/conditions and the routing/rnb_router substrate.

#pragma once

#include "core/allocator.hpp"

namespace jigsaw {

struct LinkView;

class JigsawAllocator final : public Allocator {
 public:
  /// `step_budget` bounds the backtracking search per request; the search
  /// is exhaustive within the budget. Jigsaw is fast in practice and the
  /// default is effectively unlimited for realistic workloads.
  explicit JigsawAllocator(std::uint64_t step_budget = 1ull << 24)
      : step_budget_(step_budget) {}

  std::string name() const override { return "Jigsaw"; }
  bool isolating() const override { return true; }

  using Allocator::allocate;
  std::optional<Allocation> allocate(const ClusterState& state,
                                     const JobRequest& request,
                                     const AllocBudget& budget,
                                     SearchStats* stats) const override;

  /// §3.2 condition-class attribution: re-runs the same two-pass probe
  /// loop with link occupancy ignored to split kLeafSpread from
  /// kUplinkIsolation. Read-only; used by the observability layer only.
  BlockedReason diagnose(const ClusterState& state,
                         const JobRequest& request) const override;

  /// Necessity screen over the capacity indices: a two-level placement
  /// needs one subtree with `nodes` free nodes, a restricted three-level
  /// placement needs floor(nodes/m1) fully-free leaves cluster-wide.
  bool quick_reject(const ClusterState& state,
                    const JobRequest& request) const override;

  /// Structural screen from the shape families themselves: a size with
  /// an empty two-level AND empty restricted three-level sequence can
  /// never be placed (table-served at the production radices).
  bool size_unplaceable(const FatTree& topo, int nodes) const override;

 private:
  /// The two-pass probe loop, parameterized over the availability lens
  /// so allocate() (live view) and diagnose() (links-unconstrained view)
  /// share one search.
  /// An active `latency` turns both passes anytime (same canonical
  /// order, best feasible committed at expiry).
  std::optional<Allocation> search(const ClusterState& state,
                                   const LinkView& view,
                                   const JobRequest& request,
                                   const AllocBudget& latency,
                                   SearchStats* stats) const;

  std::uint64_t step_budget_;
};

}  // namespace jigsaw
