// FIFO + EASY backfilling over an arbitrary allocator (§5.3).
//
// EASY semantics: start jobs from the head of the queue while they fit.
// When the head does not fit, give it a reservation — the *shadow* time,
// found by replaying running-job completions (earliest first) until the
// head becomes placeable, together with the shadow placement itself. Then
// backfill: any of the next `window` queued jobs may start now if it fits
// and either finishes by the shadow time or its placement is disjoint
// from the shadow placement, so the reservation cannot be delayed.
//
// Because placeability is monotone in released resources, the shadow
// search gallops over the completion prefix instead of replaying
// completions one at a time: it starts at the shortest prefix whose
// released nodes could cover the head, steps 1, 2, 4, ... completions
// further on, and binary-searches the last gap. Backfill skips a
// candidate whose (nodes, bandwidth) already failed earlier in the same
// pass, since the pass only takes resources after the head loop.
//
// The pass is copy-free: head starts, shadow probes and backfill all run
// against the caller's ClusterState under nested transactions
// (ClusterState::Txn) and are rolled back before returning, so the caller
// observes an unchanged state — including its revision counter — while
// the scheduler pays O(touched-resources) per speculation instead of
// O(cluster) deep copies.

#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "core/allocator.hpp"
#include "obs/observer.hpp"

namespace jigsaw {

struct PendingJob {
  JobId id = kNoJob;
  int nodes = 0;
  double bandwidth = 0.0;
  double est_runtime = 0.0;  ///< runtime estimate (we use actual runtime)
};

struct RunningJob {
  JobId id = kNoJob;
  double end_time = 0.0;
  Allocation allocation;
};

/// Order in which backfill candidates inside the window are examined.
enum class BackfillOrder {
  kFifo,          ///< queue order (classic EASY, the paper's §5.3 setting)
  kShortestFirst  ///< shortest estimated runtime first (SJBF variant)
};

/// Smallest k in [lo, hi] with fits(k), for a predicate that is false
/// below some boundary and true from it on; hi + 1 when fits(hi) is
/// false. Probes lo, lo+1, lo+3, lo+7, ... (capped at hi), then
/// binary-searches the last gap, so a boundary d past lo costs
/// O(log d) probes. Successful probes land on strictly shrinking
/// positions, so the last one is at the returned k.
template <typename Fits>
std::size_t gallop_first_fit(std::size_t lo, std::size_t hi, Fits&& fits) {
  if (lo > hi) return hi + 1;
  std::size_t below = lo;  // every position in [lo, below) is false
  std::size_t k = lo;
  for (std::size_t step = 1; !fits(k); step *= 2) {
    if (k == hi) return hi + 1;
    below = k + 1;
    k = std::min(hi, k + step);
  }
  while (below < k) {
    const std::size_t mid = below + (k - below) / 2;
    if (fits(mid)) {
      k = mid;
    } else {
      below = mid + 1;
    }
  }
  return k;
}

class EasyScheduler {
 public:
  /// `quick_reject` enables the admission-time screen: every allocate
  /// attempt (head, shadow probe, backfill) first consults the
  /// allocator's O(trees) quick_reject() necessity check and skips the
  /// full placement search when it proves failure. The screen is sound —
  /// it only fires when allocate() would certainly fail — so enabling it
  /// is decision-neutral; it changes only the work done, never which
  /// jobs start. Off by default because golden tests pin exact
  /// allocate-call counts.
  /// `alloc_budget` bounds every placement search the pass issues (head,
  /// shadow probe, backfill) with the allocator's anytime deadline; the
  /// default inactive budget keeps the historical exhaustive behavior
  /// bit-identical.
  EasyScheduler(const Allocator& allocator, int backfill_window,
                BackfillOrder order = BackfillOrder::kFifo,
                bool quick_reject = false, AllocBudget alloc_budget = {})
      : allocator_(&allocator), window_(backfill_window), order_(order),
        quick_reject_(quick_reject), alloc_budget_(alloc_budget) {}

  struct Decision {
    std::size_t pending_index;
    Allocation allocation;
  };

  struct PassStats {
    std::uint64_t allocate_calls = 0;
    std::uint64_t search_steps = 0;
    std::uint64_t budget_exhaustions = 0;
    /// Placement searches skipped by the admission quick-reject screen
    /// (counted instead of, not in addition to, allocate_calls).
    std::uint64_t quick_rejects = 0;
    /// Backfill candidates skipped because a request of the same nodes
    /// and bandwidth already failed definitively earlier in the pass
    /// (counted instead of allocate_calls or quick_rejects).
    std::uint64_t backfill_memo_skips = 0;
    /// §3.2 condition-class attribution for the blocked head, when the
    /// pass left one (kNone otherwise). Only computed when the pass runs
    /// with an enabled ObsContext — attribution calls the allocator's
    /// read-only diagnose() probe, a second search per blocked pass that
    /// a disabled-obs pass skips. Cache-hit passes replay the reason
    /// memoized by the pass that computed it.
    BlockedReason head_blocked_reason = BlockedReason::kNone;
    JobId head_blocked_job = kNoJob;
  };

  /// Inter-pass memo. When the cluster state is unchanged since a pass
  /// that left the same head job blocked (an arrival-only event), the
  /// head retry and shadow recomputation are skipped and only backfill
  /// candidates that were not yet examined are tried. The examined
  /// prefix keeps advancing across consecutive zero-start cache-hit
  /// passes, so a stream of arrivals probes each candidate exactly once.
  /// Under BackfillOrder::kShortestFirst the examined prefix is
  /// deliberately uncached: new arrivals re-sort the window, so
  /// candidates do not keep their positions across passes and every
  /// cache-hit pass re-examines the full window (the head retry and
  /// shadow reuse still apply). Owned by the caller; pass the same
  /// instance to consecutive schedule() calls.
  struct Cache {
    std::uint64_t revision = ~0ull;
    JobId blocked_head = kNoJob;
    std::size_t examined = 0;
    std::optional<Allocation> shadow;
    double shadow_time = 0.0;
    /// Attribution memoized alongside the shadow: a cache-hit pass skips
    /// the head retry, so it reuses the reason diagnosed when the head
    /// first blocked instead of re-probing.
    BlockedReason blocked_reason = BlockedReason::kNone;
  };

  /// Decide which pending jobs to start at time `now`. `state` is
  /// mutated during the pass (speculative placements under a
  /// transaction) but restored bit-identically — revision included —
  /// before returning; the caller applies the returned allocations.
  /// `running` may be in any order.
  ///
  /// When `obs` is non-null the pass reports decision-level telemetry:
  /// per-allocate-call `alloc.attempt` events and timing histograms,
  /// `sched.head_blocked` with the shadow reservation, and one
  /// `sched.backfill` event per candidate with the accept/reject reason.
  /// A null `obs` emits and times nothing; only an allocation deadline
  /// reads the clock. The pass allocates its decisions and its per-pass
  /// lists (completion order, release ladder, backfill window, failure
  /// memo). A warm Jigsaw allocate() call allocates only the Allocation
  /// it returns, and so does a LaaS call that places within one subtree.
  std::vector<Decision> schedule(double now, ClusterState& state,
                                 const std::deque<PendingJob>& pending,
                                 const std::vector<RunningJob>& running,
                                 PassStats* stats = nullptr,
                                 Cache* cache = nullptr,
                                 const obs::ObsContext* obs = nullptr) const;

 private:
  const Allocator* allocator_;
  int window_;
  BackfillOrder order_;
  bool quick_reject_;
  AllocBudget alloc_budget_;
};

}  // namespace jigsaw
