// Simulation metrics (§5, "Evaluation Setup").
//
// The paper evaluates schedulers on: average *steady-state* system
// utilization (Figure 6), instantaneous-utilization frequency (Table 2),
// job turnaround time for all and for >100-node jobs (Figure 7), makespan
// (Figure 8), and average scheduling time per job (Table 3).
//
// UtilizationTimeline records the piecewise-constant count of busy
// (requested) nodes and integrates it over any window after the run, so
// the steady-state window — from the first moment the scheduler leaves
// work waiting to the last moment the queue drains — can be applied
// post-hoc.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "topology/ids.hpp"
#include "util/binio.hpp"

namespace jigsaw {

/// Per-job outcome recorded by the simulator (optional; see
/// SimConfig::collect_job_records).
struct JobRecord {
  JobId job = kNoJob;
  int nodes = 0;
  double arrival = 0.0;
  double start = 0.0;
  double end = 0.0;

  double wait() const { return start - arrival; }
  double turnaround() const { return end - arrival; }
  double runtime() const { return end - start; }
};

/// CSV export (header + one line per record), for external analysis.
void write_job_records_csv(std::ostream& out,
                           const std::vector<JobRecord>& records);

class UtilizationTimeline {
 public:
  explicit UtilizationTimeline(int system_nodes)
      : system_nodes_(system_nodes) {}

  /// Record a change in busy node count at `time` (monotone non-decreasing
  /// times). `delta` is +requested on job start, -requested on completion.
  void record(double time, int delta);

  /// Also track nodes allocated-but-wasted (LaaS rounding) for the
  /// internal-fragmentation statistic.
  void record_waste(double time, int delta);

  int busy_now() const { return busy_; }
  int waste_now() const { return waste_; }
  int system_nodes() const { return system_nodes_; }

  /// Mean utilization of requested nodes over [start, end].
  double utilization(double start, double end) const;
  /// Mean fraction of nodes allocated but wasted over [start, end].
  double waste_fraction(double start, double end) const;

 private:
  friend class SimEngine;  // its snapshot blob lists busy_, waste_, points_

  struct Point {
    double time;
    int busy;
    int waste;
  };

  double integrate(double start, double end, bool waste) const;

  int system_nodes_;
  int busy_ = 0;
  int waste_ = 0;
  std::vector<Point> points_;  // state *from* points_[k].time onward
};

struct SimMetrics {
  double steady_utilization = 0.0;  ///< Figure 6 metric, in [0, 1]
  double steady_waste = 0.0;        ///< internal fragmentation fraction
  double steady_start = 0.0;
  double steady_end = 0.0;
  double makespan = 0.0;            ///< Figure 8 metric
  double mean_turnaround_all = 0.0; ///< Figure 7 metric
  double mean_turnaround_large = 0.0;  ///< jobs > 100 nodes
  std::size_t large_jobs = 0;
  double mean_wait = 0.0;
  std::size_t completed = 0;
  double sched_wall_seconds = 0.0;  ///< total wall time in scheduling passes
  std::uint64_t sched_passes = 0;
  std::uint64_t allocate_calls = 0;
  std::uint64_t search_steps = 0;
  std::uint64_t budget_exhaustions = 0;
  /// Placement searches skipped by the admission quick-reject screen
  /// (SimConfig::admission_quick_reject); disjoint from allocate_calls.
  std::uint64_t quick_rejects = 0;
  /// Backfill candidates skipped by the scheduler's per-pass failure
  /// memo (same nodes and bandwidth already failed in the pass);
  /// disjoint from allocate_calls and quick_rejects.
  std::uint64_t backfill_memo_skips = 0;
  double mean_sched_time_per_job = 0.0;  ///< Table 3 metric
  // -- fault accounting (nonzero only when a FailureSchedule is active) --
  std::uint64_t fault_events = 0;        ///< schedule events applied
  std::uint64_t resources_failed = 0;    ///< primitive resources newly failed
  std::uint64_t resources_repaired = 0;  ///< primitive resources restored
  std::uint64_t jobs_killed = 0;         ///< running jobs hit by a failure
  std::uint64_t jobs_requeued = 0;       ///< kill-and-requeue re-entries
  std::uint64_t grants_rejected = 0;     ///< placements the can_apply
                                         ///< precheck bounced back to queue
  /// Jobs never completed because the degraded tree could not place them
  /// by the time the event queue drained (kill-and-requeue may orbit a
  /// job whose shape no longer fits the surviving hardware).
  std::size_t abandoned = 0;
  /// Jobs cancelled while queued (online service only; always 0 for
  /// batch trace replays, which have no cancel path).
  std::size_t cancelled = 0;
  // -- defrag accounting (nonzero only with SimConfig::defrag.enabled) --
  std::uint64_t migration_plans = 0;     ///< head-stall plans adopted
  std::uint64_t migration_plans_failed = 0;  ///< stalls no plan could fix
  std::uint64_t migration_plans_aborted = 0; ///< plans stale at execution
  std::uint64_t migrations = 0;          ///< individual jobs relocated
  /// Total overhead charged to moved jobs: allocated nodes x migration
  /// cost, summed over migrations (node-seconds of extended occupancy).
  double migration_node_seconds = 0.0;
  std::uint64_t head_unblocks = 0;        ///< head started after its plan
  std::uint64_t head_unblock_failures = 0;  ///< plan ran, head still stuck
  /// Instantaneous utilization (percent) sampled at every schedule or
  /// completion event inside the steady window (Table 2 input).
  std::vector<double> instant_utilization;
  /// Turnaround distribution percentiles (always computed).
  double p50_turnaround = 0.0;
  double p90_turnaround = 0.0;
  double p99_turnaround = 0.0;
  /// Per-job outcomes; filled only when SimConfig::collect_job_records.
  std::vector<JobRecord> job_records;
};

/// JobRecord's field list (util/binio.hpp).
inline constexpr auto job_record_fields = [](auto& io, auto& r) {
  io.i64(r.job);
  io.i64(r.nodes);
  io.f64(r.arrival);
  io.f64(r.start);
  io.f64(r.end);
};

/// SimMetrics' one field list (util/binio.hpp), with each scalar's name.
/// The engine snapshot blob stores every field in this order, and
/// service::metrics_json renders the named scalars, in this order, as
/// the drain reply. Changing the list changes the blob format.
inline constexpr auto metrics_fields = [](auto& io, auto& m) {
  io.f64(m.steady_utilization, "steady_utilization");
  io.f64(m.steady_waste, "steady_waste");
  io.f64(m.steady_start, "steady_start");
  io.f64(m.steady_end, "steady_end");
  io.f64(m.makespan, "makespan");
  io.f64(m.mean_turnaround_all, "mean_turnaround_all");
  io.f64(m.mean_turnaround_large, "mean_turnaround_large");
  io.u64(m.large_jobs, "large_jobs");
  io.f64(m.mean_wait, "mean_wait");
  io.u64(m.completed, "completed");
  io.f64(m.sched_wall_seconds, "sched_wall_seconds");
  io.u64(m.sched_passes, "sched_passes");
  io.u64(m.allocate_calls, "allocate_calls");
  io.u64(m.search_steps, "search_steps");
  io.u64(m.budget_exhaustions, "budget_exhaustions");
  io.u64(m.quick_rejects, "quick_rejects");
  io.u64(m.backfill_memo_skips, "backfill_memo_skips");
  io.f64(m.mean_sched_time_per_job, "mean_sched_time_per_job");
  io.u64(m.fault_events, "fault_events");
  io.u64(m.resources_failed, "resources_failed");
  io.u64(m.resources_repaired, "resources_repaired");
  io.u64(m.jobs_killed, "jobs_killed");
  io.u64(m.jobs_requeued, "jobs_requeued");
  io.u64(m.grants_rejected, "grants_rejected");
  io.u64(m.abandoned, "abandoned");
  io.u64(m.cancelled, "cancelled");
  io.seq(m.instant_utilization, f64_each);
  io.f64(m.p50_turnaround, "p50_turnaround");
  io.f64(m.p90_turnaround, "p90_turnaround");
  io.f64(m.p99_turnaround, "p99_turnaround");
  io.seq(m.job_records, job_record_fields);
  io.u64(m.migration_plans, "migration_plans");
  io.u64(m.migration_plans_failed, "migration_plans_failed");
  io.u64(m.migration_plans_aborted, "migration_plans_aborted");
  io.u64(m.migrations, "migrations");
  io.f64(m.migration_node_seconds, "migration_node_seconds");
  io.u64(m.head_unblocks, "head_unblocks");
  io.u64(m.head_unblock_failures, "head_unblock_failures");
};

}  // namespace jigsaw
