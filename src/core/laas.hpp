// Links-as-a-Service allocator (Zahavi et al., ANCS'16).
//
// Within a single subtree LaaS applies its native two-level conditions —
// the paper's conditions (2) and (4), which it shares with Jigsaw
// (footnote 1) — and allocates exact node counts, remainder leaf included.
//
// For jobs that must span subtrees, LaaS has no three-level conditions;
// it *reduces* the problem to two levels: whole leaves stand in for
// nodes, subtrees for leaves, and spine-index bundles for L2 switches.
// The job is rounded up to R = ceil(N / m1) whole leaves — the surplus
// nodes are internal fragmentation (Figure 2, left; 3-7% of the system in
// the paper's experiments). The R leaves are spread evenly across
// subtrees (c per subtree plus a remainder subtree), and each L2 switch
// of an allocated subtree receives uplinks at a *common spine-index set*
// J — the reduction forces every L2 group to use the same indices, which
// is more restrictive than Jigsaw's per-group sets S*_i.

#pragma once

#include "core/allocator.hpp"

namespace jigsaw {

struct LinkView;

class LaasAllocator final : public Allocator {
 public:
  explicit LaasAllocator(std::uint64_t step_budget = 1ull << 24)
      : step_budget_(step_budget) {}

  std::string name() const override { return "LaaS"; }
  bool isolating() const override { return true; }

  using Allocator::allocate;
  std::optional<Allocation> allocate(const ClusterState& state,
                                     const JobRequest& request,
                                     const AllocBudget& budget,
                                     SearchStats* stats) const override;

  /// §3.2 condition-class attribution: re-runs the two-level pass and the
  /// whole-leaf width scan with link occupancy ignored to split
  /// kLeafSpread from kUplinkIsolation. Read-only.
  BlockedReason diagnose(const ClusterState& state,
                         const JobRequest& request) const override;

  /// Necessity screen over the capacity indices: the two-level pass needs
  /// one subtree with `nodes` free nodes, the whole-leaf reduction needs
  /// ceil(nodes/m1) fully-free leaves cluster-wide.
  bool quick_reject(const ClusterState& state,
                    const JobRequest& request) const override;

 private:
  /// The probe loop shared by allocate() (live view) and diagnose()
  /// (links-unconstrained view).
  std::optional<Allocation> search(const ClusterState& state,
                                   const LinkView& view,
                                   const JobRequest& request,
                                   SearchStats* stats) const;

  std::uint64_t step_budget_;
};

}  // namespace jigsaw
