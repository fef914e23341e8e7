// The discrete-event scheduling simulator (§5).
//
// Replays a job trace against a fat-tree cluster under a given allocator
// with FIFO + EASY backfilling, and reports the paper's metrics. Speed-up
// scenarios shorten the runtimes of jobs scheduled by interference-free
// (or near-interference-free, LC+S) schemes.

#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/allocator.hpp"
#include "defrag/defrag.hpp"
#include "fault/failure_schedule.hpp"
#include "obs/observer.hpp"
#include "sim/metrics.hpp"
#include "sim/scheduler.hpp"
#include "sim/speedup.hpp"
#include "trace/trace.hpp"

namespace jigsaw {

/// What happens to a running job when a failure event hits hardware it
/// owns.
enum class VictimPolicy {
  /// Kill the job, release its partition, and resubmit it at the back of
  /// the wait queue for a full restart (no checkpointing).
  kKillAndRequeue,
  /// Let the job run to its normal completion on the degraded partition;
  /// the failed resources stay owned until release and only then drop
  /// out of the free pool.
  kRunToCompletionDegraded,
};

struct SimConfig {
  SpeedupScenario scenario = SpeedupScenario::kNone;
  int backfill_window = 50;
  BackfillOrder backfill_order = BackfillOrder::kFifo;
  /// Admission-time quick-reject screen: consult the allocator's sound
  /// O(trees) necessity check (Allocator::quick_reject) before every
  /// placement search and skip searches it proves futile. Decision-
  /// neutral by soundness — only allocate_calls/search_steps change,
  /// never which jobs start. Off by default so golden batch tests keep
  /// pinning exact allocate-call counts; the service daemon enables it.
  bool admission_quick_reject = false;
  /// Inert: benchmark/sim_workload.cpp sets it; ROADMAP item 1 deletes it.
  std::int64_t alloc_deadline_us = 0;
  /// Record instantaneous utilization at every schedule/completion event
  /// (Table 2); costs memory on very long traces.
  bool collect_instant_samples = false;
  /// Stop after this many completed jobs (0 = whole trace).
  std::size_t max_jobs = 0;
  /// Keep a JobRecord per completed job in SimMetrics::job_records (for
  /// CSV export / distribution analysis); costs memory on long traces.
  bool collect_job_records = false;
  /// Measured-interference mode: when > 0 and the scheduler is NOT
  /// interference-free, each starting job pays a congestion penalty
  /// derived from its own placement — a random traffic permutation is
  /// routed with D-mod-k against the links currently loaded by running
  /// jobs, and the runtime stretches by
  ///   comm_fraction * (worst link sharing - 1).
  /// This replaces the paper's assumed speed-up scenarios with penalties
  /// the simulation itself measures (set scenario = kNone when using it).
  double measured_interference_comm_fraction = 0.0;
  /// Failure injection (non-owning; null = pristine hardware). Fail and
  /// repair events enter the discrete-event loop, flip ClusterState
  /// health masks, and trigger the victim policy on running jobs. With a
  /// schedule attached the run may end with unplaceable jobs still
  /// queued; they are reported in SimMetrics::abandoned instead of
  /// throwing.
  const fault::FailureSchedule* failures = nullptr;
  VictimPolicy victim_policy = VictimPolicy::kKillAndRequeue;
  /// Called after every successful grant (post-apply) with the settled
  /// cluster state — the hook the resilience bench and degraded-tree
  /// tests use to audit that no placement lands on failed hardware and
  /// that Jigsaw placements stay RNB-certifiable. Leave empty for the
  /// zero-cost path.
  std::function<void(double now, const Allocation&, const ClusterState&)>
      grant_audit;
  /// Live defragmentation (defrag/defrag.hpp): when enabled, a head job
  /// stalled on a condition-class failure (leaf_spread /
  /// uplink_isolation) triggers a bounded migration-plan search; adopted
  /// plans pause and relocate running jobs at `defrag.migration_cost`
  /// simulated seconds each. Off by default — and then bit-identical to
  /// a simulator without the subsystem.
  DefragConfig defrag;
  /// Observability hookup (non-owning; see obs/observer.hpp). Default is
  /// the null context: no events, no metrics, no extra cost. With a sink
  /// attached the run emits job-lifecycle, allocation, and scheduling-pass
  /// events; with a registry attached it feeds `sched.*` / `alloc.*` /
  /// `jobs.*` counters and histograms plus `cluster.*` / `queue.depth`
  /// gauges.
  obs::ObsContext obs;
};

/// Runs the whole trace to completion and computes metrics.
/// `allocator.speedup_eligible` jobs (any isolating scheme, plus LC+S by
/// convention) run at their isolated runtime under the configured scenario.
SimMetrics simulate(const FatTree& topo, const Allocator& allocator,
                    const Trace& trace, const SimConfig& config);

/// Whether jobs under this allocator receive isolation speed-ups:
/// every isolating scheme, plus LC+S (interference assumed negligible).
bool speedup_eligible(const Allocator& allocator);

}  // namespace jigsaw
