// Least-constrained allocator, with optional link sharing (LC+S, §5.2.3).
//
// LC admits *every* shape the formal conditions of §3.2 allow — including
// three-level placements that use only part of each leaf — which makes the
// search space far larger than Jigsaw's. The paper uses LC+S as a
// theoretical near-optimal bound: on top of LC, each job declares an
// average per-link bandwidth demand and links are shared as long as the
// residual bandwidth (peak x utilization cap) covers every tenant.
//
// The search mirrors Algorithm 1's structure: FIND_ALL_L2 enumerates
// per-subtree solutions (deduplicated by their common-uplink mask), and
// FIND_L3 combines them across subtrees, tracking per-L2-index spine
// candidates. Because the worst case is enormous (hours, per the paper),
// the search carries a step budget analogous to the paper's 5-second
// timeout; exhausting it reports "no placement now" and the job waits.

#pragma once

#include "core/allocator.hpp"

namespace jigsaw {

struct LinkView;

class LeastConstrainedAllocator final : public Allocator {
 public:
  /// With `share_links`, requests' bandwidth demands are honored against
  /// residual wire bandwidth (LC+S); without, wires are exclusive (LC,
  /// used by the paper's §4 fragmentation argument and our ablation).
  /// The default budget mirrors the paper's per-event timeout: failed
  /// placements (the common case while the head job waits) cost at most
  /// ~1M backtracking steps instead of searching the full space, which on
  /// the radix-28 cluster is the difference between milliseconds and
  /// seconds per scheduling event.
  explicit LeastConstrainedAllocator(bool share_links,
                                     std::uint64_t step_budget = 1ull << 20)
      : share_links_(share_links), step_budget_(step_budget) {}

  std::string name() const override { return share_links_ ? "LC+S" : "LC"; }
  bool isolating() const override { return !share_links_; }

  using Allocator::allocate;
  std::optional<Allocation> allocate(const ClusterState& state,
                                     const JobRequest& request,
                                     const AllocBudget& budget,
                                     SearchStats* stats) const override;

  /// §3.2 condition-class attribution: re-runs the two-level and general
  /// three-level probe loops with link occupancy (and bandwidth demand)
  /// ignored to split kLeafSpread from kUplinkIsolation. Read-only.
  BlockedReason diagnose(const ClusterState& state,
                         const JobRequest& request) const override;

 private:
  /// The probe loop shared by allocate() (live availability lens) and
  /// diagnose() (links-unconstrained).
  /// An active `latency` turns both passes anytime; the general
  /// three-level family is then probed sorted best fit first, computed
  /// per call (it is never tabled).
  std::optional<Allocation> search(const ClusterState& state, double demand,
                                   bool ignore_links,
                                   const JobRequest& request,
                                   const AllocBudget& latency,
                                   SearchStats* stats) const;

  bool share_links_;
  std::uint64_t step_budget_;
};

}  // namespace jigsaw
