// Allocator interface shared by every scheduling scheme.
//
// An allocator is a stateless placement policy: given the current cluster
// resource state and a job request, it either produces an Allocation
// (without mutating the state — the scheduler applies it) or reports that
// no legal placement currently exists.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "topology/cluster_state.hpp"

namespace jigsaw {

struct JobRequest {
  JobId id = kNoJob;
  int nodes = 0;
  /// Average per-link bandwidth demand in GB/s; only consulted by the
  /// link-sharing scheme (LC+S).
  double bandwidth = 0.0;
};

/// Counters a placement search reports for scheduling-time analysis.
struct SearchStats {
  std::uint64_t steps = 0;       ///< backtracking steps taken
  bool budget_exhausted = false; ///< search gave up at its step budget
  std::uint64_t probes = 0;      ///< candidate probes across all passes
  /// Inert: benchmark/timed_allocator.hpp reads it; ROADMAP item 1 deletes it.
  bool deadline_expired = false;
};

/// Inert: benchmark/timed_allocator.hpp passes it; ROADMAP item 1 deletes it.
struct AllocBudget {};

/// Why a placement attempt failed, by §3.2 condition class. The
/// attribution is observational (diagnose() below) and never feeds back
/// into placement decisions.
enum class BlockedReason {
  kNone = 0,         ///< not blocked (placement exists / succeeded)
  kOversized,        ///< request exceeds the machine's total node count
  kNodeShortage,     ///< fewer free healthy nodes than requested
  /// Node-layout condition class — §3.2 (1)-(3): even with every link
  /// unconstrained, no admissible spread of the free nodes over
  /// leaves/subtrees exists under the scheme's shape family.
  kLeafSpread,
  /// Link condition class — §3.2 (4)-(6): an admissible node layout
  /// exists when link occupancy is ignored, but the uplink/spine sets
  /// held by running jobs (or bandwidth demand, LC+S) reject it.
  kUplinkIsolation,
  kBudgetExhausted,  ///< search hit its step budget before a verdict
};

/// Stable lower-case token for a reason ("leaf_spread", ...), used in
/// metric names, trace events, and the daemon's job-status op.
const char* blocked_reason_name(BlockedReason reason);

class Allocator {
 public:
  virtual ~Allocator() = default;

  virtual std::string name() const = 0;

  /// True when the scheme guarantees complete inter-job network isolation
  /// (decides whether isolation speed-up scenarios apply to its jobs).
  virtual bool isolating() const = 0;

  /// Find a placement for the request. Does not modify `state`; returns
  /// std::nullopt when the policy admits no placement right now. The
  /// search is exhaustive within the scheme's step budget, so the answer
  /// depends only on `state` and `request`. A returned Allocation
  /// satisfies the scheme's full isolation conditions.
  virtual std::optional<Allocation> allocate(const ClusterState& state,
                                             const JobRequest& request,
                                             const AllocBudget& budget,
                                             SearchStats* stats) const = 0;

  /// Convenience overload: the same search.
  std::optional<Allocation> allocate(const ClusterState& state,
                                     const JobRequest& request,
                                     SearchStats* stats = nullptr) const {
    return allocate(state, request, {}, stats);
  }

  /// Sound O(trees) screen over the incremental capacity indices: true
  /// ONLY when allocate() is certain to fail for `request` on `state`.
  /// The scheduler's admission path (SimConfig::admission_quick_reject)
  /// consults it before paying for a full placement search, so a true
  /// return must never be wrong — every override errs toward false.
  /// The base screen is the node-count necessity shared by every scheme:
  /// any placement claims at least `nodes` free healthy nodes.
  virtual bool quick_reject(const ClusterState& state,
                            const JobRequest& request) const;

  /// Structural (state-independent) placeability screen: true ONLY when
  /// no legal placement of `nodes` can exist on `topo` even with the
  /// whole machine free and healthy — i.e. the scheme's shape family
  /// admits no candidate for that size. Sound like quick_reject(): a
  /// true return must never be wrong. The base screen only rejects
  /// oversized requests; schemes whose families are table-served (PR 8's
  /// registry) answer from the installed tables so the fragmentation
  /// frontier bisection skips structurally impossible probe sizes
  /// without paying a placement search.
  virtual bool size_unplaceable(const FatTree& topo, int nodes) const;

  /// Explain why allocate() just failed for `request`: classify the
  /// §3.2 condition class that rejected the best candidate. Purely
  /// observational — read-only, sequential, and only ever invoked by
  /// the observability layer on an already-failed head placement, so it
  /// cannot perturb scheduling decisions or golden determinism. The
  /// base implementation covers the condition-free classes (oversized,
  /// node shortage, budget exhaustion); schemes with a link search
  /// override it to separate kLeafSpread from kUplinkIsolation by
  /// re-running their probe loop with link occupancy ignored.
  virtual BlockedReason diagnose(const ClusterState& state,
                                 const JobRequest& request) const;
};

using AllocatorPtr = std::unique_ptr<Allocator>;

}  // namespace jigsaw
