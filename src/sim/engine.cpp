#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "fault/injector.hpp"
#include "obs/cluster_probe.hpp"
#include "obs/scoped_timer.hpp"
#include "routing/dmodk.hpp"
#include "routing/rnb_router.hpp"
#include "util/stats.hpp"

namespace jigsaw {

/// Incremental link-load tracker for the measured-interference mode.
/// Each running job contributes the D-mod-k routes of one random traffic
/// permutation; a starting job's congestion factor is the worst sharing
/// level along its own flows (its flows included).
class TrafficLoadModel {
 public:
  TrafficLoadModel(const FatTree& topo, std::uint64_t seed)
      : topo_(&topo),
        load_(static_cast<std::size_t>(topo.directed_link_count()), 0),
        rng_(seed) {}

  /// Registers the job's traffic and returns its congestion factor
  /// (>= 1.0): the maximum number of flows sharing any link it uses.
  double add_job(const Allocation& allocation) {
    std::vector<std::vector<int>> routes;
    if (allocation.nodes.size() >= 2) {
      for (const Flow& f : random_permutation(allocation, rng_)) {
        if (f.src == f.dst) continue;
        routes.push_back(dmodk_route(*topo_, f.src, f.dst));
      }
    }
    int worst = 1;
    for (const auto& route : routes) {
      for (const int link : route) {
        worst = std::max(worst, ++load_[static_cast<std::size_t>(link)]);
      }
    }
    routes_[allocation.job] = std::move(routes);
    return static_cast<double>(worst);
  }

  void remove_job(JobId job) {
    const auto it = routes_.find(job);
    if (it == routes_.end()) return;
    for (const auto& route : it->second) {
      for (const int link : route) {
        --load_[static_cast<std::size_t>(link)];
      }
    }
    routes_.erase(it);
  }

 private:
  const FatTree* topo_;
  std::vector<int> load_;
  std::unordered_map<JobId, std::vector<std::vector<int>>> routes_;
  Rng rng_;
};

const char* job_phase_name(JobPhase phase) {
  switch (phase) {
    case JobPhase::kUnknown: return "unknown";
    case JobPhase::kQueued: return "queued";
    case JobPhase::kRunning: return "running";
    case JobPhase::kCompleted: return "completed";
    case JobPhase::kCancelled: return "cancelled";
  }
  return "unknown";
}

/// Pre-resolved observability handles for the simulation loop: one name
/// lookup per metric per run instead of per event.
SimEngine::SimObs::SimObs(const obs::ObsContext& o) {
  if (!o.enabled()) return;
  ctx = &o;
  tracing = o.tracing();
  if (!o.metering()) return;
  obs::MetricsRegistry& m = *o.metrics;
  arrived = &m.counter("jobs.arrived");
  started = &m.counter("jobs.started");
  completed = &m.counter("jobs.completed");
  passes = &m.counter("sched.passes");
  queue_depth = &m.gauge("queue.depth");
  pass_seconds = &m.histogram("sched.pass_seconds");
  queue_depth_hist = &m.histogram("sched.queue_depth");
  wait_seconds = &m.histogram("jobs.wait_seconds");
  defrag_plans = &m.counter("defrag.plans");
  defrag_plan_failures = &m.counter("defrag.plan_failures");
  defrag_aborted = &m.counter("defrag.plans_aborted");
  defrag_migrations = &m.counter("defrag.migrations");
  defrag_unblocks = &m.counter("defrag.head_unblocks");
  defrag_unblock_failures = &m.counter("defrag.head_unblock_failures");
}

SimEngine::SimEngine(const FatTree& topo, const Allocator& allocator,
                     const SimConfig& config)
    : topo_(&topo),
      allocator_(&allocator),
      config_(config),
      speedups_(speedup_eligible(allocator)),
      model_(config.scenario, /*seed=*/1),
      so_(config_.obs),
      // Per-wire link-sharing budget: peak 5 GB/s x 80% cap (§5.4.2).
      state_(topo, /*usable_bandwidth=*/4.0),
      scheduler_(allocator, config.backfill_window, config.backfill_order,
                 config.admission_quick_reject),
      timeline_(topo.total_nodes()) {
  // Measured interference penalizes schedulers without isolation
  // guarantees (in this library: Baseline) instead of speeding up the
  // isolating ones — the same comparison rebased.
  if (config_.measured_interference_comm_fraction > 0.0 && !speedups_) {
    traffic_ = std::make_unique<TrafficLoadModel>(topo, /*seed=*/99);
  }
  // A migration can never be free: a zero (or negative) cost would let a
  // failed unblock re-plan at the same timestamp forever.
  config_.defrag.migration_cost = std::max(config_.defrag.migration_cost, 1e-9);
  // Defrag is incompatible with measured interference: relocating a job
  // would have to reroute its traffic permutation, and the RNG-coupled
  // link loads are not snapshotable anyway.
  if (config_.defrag.enabled && traffic_ == nullptr) {
    defrag_planner_ =
        std::make_unique<DefragPlanner>(allocator, config_.defrag);
  }
}

SimEngine::~SimEngine() = default;

void SimEngine::submit(const Job& job) {
  if (job.nodes > topo_->total_nodes()) {
    throw std::invalid_argument("trace job larger than the cluster");
  }
  if (job_index_.count(job.id) != 0) {
    throw std::invalid_argument("duplicate job id submitted");
  }
  if (any_event_processed_ && job.arrival < last_event_time_) {
    throw std::invalid_argument("job arrival in the simulated past");
  }
  job_index_[job.id] = jobs_.size();
  jobs_.push_back(job);
  phase_[job.id] = JobPhase::kQueued;
  events_.push(job.arrival, EventType::kArrival, job.id);
}

bool SimEngine::cancel(JobId id) {
  const auto it = phase_.find(id);
  if (it == phase_.end() || it->second != JobPhase::kQueued) return false;
  it->second = JobPhase::kCancelled;
  ++cancelled_;
  // Drop the queue entry if the arrival already fired; a still-pending
  // arrival event is skipped when it surfaces (see handle_arrival).
  for (std::size_t k = 0; k < queue_.size(); ++k) {
    if (queue_[k].id == id) {
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(k));
      queue_job_index_.erase(queue_job_index_.begin() +
                             static_cast<std::ptrdiff_t>(k));
      // The scheduler cache's examined prefix indexes into the queue;
      // a mid-queue removal invalidates it.
      sched_cache_ = EasyScheduler::Cache{};
      break;
    }
  }
  if (queue_.empty()) was_backlogged_ = false;
  return true;
}

void SimEngine::add_fault(double time, bool failure,
                          const fault::FaultTarget& target) {
  // The event expands its target into unchecked ClusterState indices.
  const std::string invalid = fault::validate(*topo_, target);
  if (!invalid.empty()) throw std::invalid_argument(invalid);
  if (any_event_processed_ && time < last_event_time_) {
    throw std::invalid_argument("fault event in the simulated past");
  }
  const std::size_t index = fault_events_.size();
  fault_events_.push_back(fault::FaultEvent{time, failure, target});
  allow_unfinished_ = true;
  events_.push(time, failure ? EventType::kFailure : EventType::kRepair,
               kNoJob, static_cast<std::int64_t>(index));
}

double SimEngine::next_time() const {
  return events_.empty() ? std::numeric_limits<double>::infinity()
                         : events_.top().time;
}

void SimEngine::handle_fault_event(double now, const Event& e) {
  const fault::FaultEvent& fe =
      fault_events_[static_cast<std::size_t>(e.aux)];
  const fault::PrimitiveSet primitives = fault::expand(*topo_, fe.target);
  ++metrics_.fault_events;
  if (e.type == EventType::kRepair) {
    metrics_.resources_repaired +=
        static_cast<std::uint64_t>(fault::apply_repair(state_, primitives));
    if (so_.tracing) {
      config_.obs.emit(
          obs::instant("fault", "resource_repaired", now)
              .arg("target", fault::describe(fe.target))
              .arg("failed_nodes",
                   static_cast<std::int64_t>(state_.failed_node_count()))
              .arg("failed_wires",
                   static_cast<std::int64_t>(state_.failed_wire_count())));
    }
    return;
  }
  metrics_.resources_failed +=
      static_cast<std::uint64_t>(fault::apply_failure(state_, primitives));
  if (so_.tracing) {
    config_.obs.emit(
        obs::instant("fault", "resource_failed", now)
            .arg("target", fault::describe(fe.target))
            .arg("failed_nodes",
                 static_cast<std::int64_t>(state_.failed_node_count()))
            .arg("failed_wires",
                 static_cast<std::int64_t>(state_.failed_wire_count())));
  }
  if (config_.victim_policy == VictimPolicy::kKillAndRequeue) {
    std::vector<JobId> victims;
    for (const RunningJob& r : running_) {
      if (fault::allocation_uses(r.allocation, primitives)) {
        victims.push_back(r.id);
      }
    }
    for (const JobId id : victims) {
      const std::size_t ri = running_index_.at(id);
      const Job& vjob = jobs_[job_index_.at(id)];
      release_running(now, ri, vjob);
      if (release_hook_) release_hook_(now, id, false);
      // Undo the wait credited at the dead run's start; the restart
      // credits the full arrival-to-restart wait instead.
      wait_sum_ -= start_time_.at(id) - vjob.arrival;
      ++generation_[id];
      ++metrics_.jobs_killed;
      ++metrics_.jobs_requeued;
      queue_.push_back(PendingJob{vjob.id, vjob.nodes, vjob.bandwidth,
                                  effective_runtime(vjob)});
      queue_job_index_.push_back(job_index_.at(id));
      phase_[id] = JobPhase::kQueued;
      if (so_.tracing) {
        config_.obs.emit(obs::instant("fault", "job_requeued", now)
                             .arg("job", id)
                             .arg("nodes", static_cast<std::int64_t>(vjob.nodes))
                             .arg("target", fault::describe(fe.target)));
      }
    }
  }
}

void SimEngine::release_running(double now, std::size_t ri, const Job& job) {
  if (traffic_ != nullptr) traffic_->remove_job(job.id);
  state_.release(running_[ri].allocation);
  timeline_.record(now, -job.nodes);
  if (running_[ri].allocation.wasted_nodes() > 0) {
    timeline_.record_waste(now, -running_[ri].allocation.wasted_nodes());
  }
  running_index_.erase(job.id);
  if (ri != running_.size() - 1) {
    running_[ri] = std::move(running_.back());
    running_index_[running_[ri].id] = ri;
  }
  running_.pop_back();
}

void SimEngine::handle_arrival(double now, const Job& job) {
  const auto pit = phase_.find(job.id);
  if (pit != phase_.end() && pit->second == JobPhase::kCancelled) {
    return;  // cancelled before its arrival event surfaced
  }
  first_arrival_ = std::min(first_arrival_, now);
  queue_.push_back(PendingJob{job.id, job.nodes, job.bandwidth,
                              effective_runtime(job)});
  queue_job_index_.push_back(job_index_.at(job.id));
  if (so_.arrived != nullptr) so_.arrived->add();
  if (so_.tracing) {
    config_.obs.emit(obs::instant("job", "job.arrival", now)
                         .arg("job", job.id)
                         .arg("nodes", static_cast<std::int64_t>(job.nodes)));
  }
}

void SimEngine::handle_completion(double now, const Event& e, const Job& job) {
  const auto git = generation_.find(e.job);
  if (git != generation_.end() && e.aux != git->second) {
    // Ghost completion of a run that was killed by a failure.
    return;
  }
  const std::size_t ri = running_index_.at(e.job);
  release_running(now, ri, job);
  if (release_hook_) release_hook_(now, e.job, true);

  const double turnaround = now - job.arrival;
  turnarounds_.push_back(turnaround);
  if (config_.collect_job_records) {
    metrics_.job_records.push_back(
        JobRecord{job.id, job.nodes, job.arrival, start_time_.at(job.id), now});
  }
  turnaround_sum_ += turnaround;
  if (job.nodes > 100) {
    turnaround_large_sum_ += turnaround;
    ++metrics_.large_jobs;
  }
  ++metrics_.completed;
  phase_[job.id] = JobPhase::kCompleted;
  end_time_[job.id] = now;
  last_completion_ = std::max(last_completion_, now);
  if (so_.completed != nullptr) so_.completed->add();
  if (so_.tracing) {
    config_.obs.emit(obs::instant("job", "job.completion", now)
                         .arg("job", job.id)
                         .arg("nodes", static_cast<std::int64_t>(job.nodes))
                         .arg("wait", start_time_.at(job.id) - job.arrival)
                         .arg("turnaround", turnaround));
  }
}

void SimEngine::drop_started_from_queue() {
  if (started_positions_.empty()) return;
  // Every started job sits in the head run or the backfill window, so
  // only the prefix up to the last started position changes: walk it
  // backwards, shifting the jobs that stay toward the back, then pop the
  // vacated front. O(window) per pass, however deep the queue.
  std::sort(started_positions_.begin(), started_positions_.end());
  auto started = started_positions_.rbegin();
  std::size_t write = started_positions_.back() + 1;
  for (std::size_t k = write; k-- > 0;) {
    if (started != started_positions_.rend() && *started == k) {
      ++started;
      continue;
    }
    --write;
    if (write != k) {
      queue_[write] = std::move(queue_[k]);
      queue_job_index_[write] = queue_job_index_[k];
    }
  }
  for (; write > 0; --write) {
    queue_.pop_front();
    queue_job_index_.pop_front();
  }
}

void SimEngine::scheduling_pass(double now) {
  // Scheduling pass. The timer is always on (SimMetrics needs the wall
  // time regardless); the histogram pointer is null when metering is off.
  const std::size_t pre_pass_depth = queue_.size();
  EasyScheduler::PassStats pass;
  obs::ScopedTimer pass_timer(so_.pass_seconds);
  auto decisions =
      scheduler_.schedule(now, state_, queue_, running_, &pass, &sched_cache_,
                          so_.ctx);
  const double pass_seconds = pass_timer.stop();
  metrics_.sched_wall_seconds += pass_seconds;
  ++metrics_.sched_passes;
  if (so_.passes != nullptr) so_.passes->add();
  if (so_.tracing) {
    config_.obs.emit(
        obs::span("sched", "sched.pass", now, pass_seconds)
            .arg("queue_depth", static_cast<std::int64_t>(pre_pass_depth))
            .arg("started", static_cast<std::int64_t>(decisions.size()))
            .arg("allocate_calls",
                 static_cast<std::int64_t>(pass.allocate_calls))
            .arg("search_steps",
                 static_cast<std::int64_t>(pass.search_steps)));
  }
  metrics_.allocate_calls += pass.allocate_calls;
  metrics_.search_steps += pass.search_steps;
  metrics_.budget_exhaustions += pass.budget_exhaustions;
  metrics_.quick_rejects += pass.quick_rejects;
  metrics_.backfill_memo_skips += pass.backfill_memo_skips;
  // Latest-pass attribution for status(): assigned unconditionally so a
  // pass that starts its head (reason kNone) clears the stale entry.
  head_blocked_reason_ = pass.head_blocked_reason;
  head_blocked_job_ = pass.head_blocked_job;

  if (!decisions.empty()) {
    started_positions_.clear();
    for (auto& d : decisions) {
      const Job& job = jobs_[queue_job_index_[d.pending_index]];
      if (!state_.can_apply(d.allocation)) {
        // The placement raced a state change (a fault, or an earlier
        // grant this pass); the job simply stays queued for the next
        // pass instead of tripping apply()'s logic_error.
        ++metrics_.grants_rejected;
        if (so_.tracing) {
          config_.obs.emit(
              obs::instant("fault", "grant_rejected", now)
                  .arg("job", job.id)
                  .arg("nodes", static_cast<std::int64_t>(job.nodes)));
        }
        continue;
      }
      state_.apply(d.allocation);
      if (config_.grant_audit) {
        config_.grant_audit(now, d.allocation, state_);
      }
      if (grant_hook_) grant_hook_(now, d.allocation);
      double runtime = effective_runtime(job);
      if (traffic_ != nullptr) {
        const double factor = traffic_->add_job(d.allocation);
        runtime *= 1.0 + config_.measured_interference_comm_fraction *
                             (factor - 1.0);
      }
      {
        const auto git = generation_.find(job.id);
        events_.push(now + runtime, EventType::kCompletion, job.id,
                     git == generation_.end() ? 0 : git->second);
      }
      timeline_.record(now, job.nodes);
      if (d.allocation.wasted_nodes() > 0) {
        timeline_.record_waste(now, d.allocation.wasted_nodes());
      }
      start_time_[job.id] = now;
      phase_[job.id] = JobPhase::kRunning;
      wait_sum_ += now - job.arrival;
      if (so_.started != nullptr) {
        so_.started->add();
        so_.wait_seconds->add(now - job.arrival);
      }
      if (so_.tracing) {
        config_.obs.emit(
            obs::instant("job", "job.start", now)
                .arg("job", job.id)
                .arg("nodes", static_cast<std::int64_t>(job.nodes))
                .arg("allocated_nodes",
                     static_cast<std::int64_t>(d.allocation.allocated_nodes()))
                .arg("wasted_nodes",
                     static_cast<std::int64_t>(d.allocation.wasted_nodes()))
                .arg("wait", now - job.arrival)
                .arg("runtime", runtime));
      }
      running_index_[job.id] = running_.size();
      running_.push_back(
          RunningJob{job.id, now + runtime, std::move(d.allocation)});
      started_positions_.push_back(d.pending_index);
    }
    drop_started_from_queue();
  }

  if (so_.queue_depth != nullptr) {
    so_.queue_depth->set(static_cast<double>(queue_.size()));
    so_.queue_depth_hist->add(static_cast<double>(queue_.size()));
  }
  if (so_.ctx != nullptr) {
    obs::sample_cluster_occupancy(*so_.ctx, state_, now);
    if (so_.tracing) {
      config_.obs.emit(
          obs::counter("sched", "queue.depth", now)
              .arg("depth", static_cast<std::int64_t>(queue_.size())));
    }
  }

  was_backlogged_ = !queue_.empty();
  if (was_backlogged_) {
    first_backlog_ = std::min(first_backlog_, now);
    last_backlog_ = std::max(last_backlog_, now);
  }
  if (config_.collect_instant_samples && was_backlogged_) {
    samples_.emplace_back(
        now, 100.0 * static_cast<double>(timeline_.busy_now()) /
                 static_cast<double>(topo_->total_nodes()));
  }

  // Defrag epilogue: first record the unblock outcome of a migration the
  // pass just followed, then let the stall detector look at the (possibly
  // new) head. Both are no-ops with defrag disabled.
  if (unblock_check_pending_) {
    unblock_check_pending_ = false;
    const auto pit = phase_.find(unblock_job_);
    const bool unblocked =
        pit != phase_.end() && (pit->second == JobPhase::kRunning ||
                                pit->second == JobPhase::kCompleted);
    if (unblocked) {
      ++metrics_.head_unblocks;
      if (so_.defrag_unblocks != nullptr) so_.defrag_unblocks->add();
    } else {
      ++metrics_.head_unblock_failures;
      if (so_.defrag_unblock_failures != nullptr) {
        so_.defrag_unblock_failures->add();
      }
    }
    if (so_.tracing) {
      config_.obs.emit(obs::instant("defrag", "defrag.unblock_result", now)
                           .arg("job", unblock_job_)
                           .arg("unblocked",
                                static_cast<std::int64_t>(unblocked ? 1 : 0)));
    }
    unblock_job_ = kNoJob;
  }
  maybe_plan_defrag(now);
}

void SimEngine::maybe_plan_defrag(double now) {
  if (defrag_planner_ == nullptr || pending_plan_.has_value() ||
      migrations_in_flight_ > 0) {
    return;
  }
  if (queue_.empty() || running_.empty()) return;
  // After a pass the head is still queued exactly when it could not
  // start; re-diagnosing it on an unchanged cluster is pure waste, so the
  // detector fires at most once per (head, revision).
  const PendingJob& head = queue_.front();
  if (head.id == last_defrag_job_ && state_.revision() == last_defrag_revision_) {
    return;
  }
  last_defrag_job_ = head.id;
  last_defrag_revision_ = state_.revision();
  const JobRequest req{head.id, head.nodes, head.bandwidth};
  // Migration only helps when free capacity exists but its layout blocks
  // the head — the §3.2 condition classes. Shortage, oversize, and budget
  // exhaustion are not fixable by moving jobs.
  const BlockedReason reason = allocator_->diagnose(state_, req);
  if (reason != BlockedReason::kLeafSpread &&
      reason != BlockedReason::kUplinkIsolation) {
    return;
  }
  std::vector<MigrationCandidate> candidates;
  candidates.reserve(running_.size());
  for (const RunningJob& r : running_) {
    candidates.push_back(MigrationCandidate{r.id, &r.allocation,
                                            r.allocation.bandwidth,
                                            r.end_time - now});
  }
  DefragPlannerStats stats;
  std::optional<DefragPlan> plan =
      defrag_planner_->plan(state_, req, candidates, &stats);
  if (!plan.has_value()) {
    ++metrics_.migration_plans_failed;
    if (so_.defrag_plan_failures != nullptr) so_.defrag_plan_failures->add();
    if (so_.tracing) {
      config_.obs.emit(obs::instant("defrag", "defrag.plan_failed", now)
                           .arg("job", head.id)
                           .arg("reason", blocked_reason_name(reason))
                           .arg("probes",
                                static_cast<std::int64_t>(stats.probes)));
    }
    return;
  }
  ++metrics_.migration_plans;
  if (so_.defrag_plans != nullptr) so_.defrag_plans->add();
  if (so_.tracing) {
    config_.obs.emit(
        obs::instant("defrag", "defrag.plan", now)
            .arg("job", head.id)
            .arg("reason", blocked_reason_name(reason))
            .arg("moves", static_cast<std::int64_t>(plan->moves.size()))
            .arg("score", plan->score)
            .arg("probes", static_cast<std::int64_t>(stats.probes)));
  }
  pending_plan_ = std::move(plan);
  // Executes at this same timestamp in the next step: the engine drains
  // every event of a batch before its scheduling pass, so nothing can
  // intervene between planning and execution in batch mode.
  events_.push(now, EventType::kMigrationStart, pending_plan_->head, 0);
}

void SimEngine::handle_migration_start(double now) {
  if (!pending_plan_.has_value()) return;
  const DefragPlan plan = std::move(*pending_plan_);
  pending_plan_.reset();
  // The plan was made against the live state one batch ago; in service
  // mode an op may have slipped in between. Abort — never partially
  // migrate — when any victim is gone or its placement moved.
  bool stale = false;
  for (const MigrationMove& m : plan.moves) {
    const auto it = running_index_.find(m.job);
    if (it == running_index_.end() ||
        running_[it->second].allocation.nodes != m.from.nodes) {
      stale = true;
      break;
    }
  }
  if (stale || !apply_plan_moves(state_, plan)) {
    ++metrics_.migration_plans_aborted;
    ++metrics_.head_unblock_failures;
    if (so_.defrag_aborted != nullptr) so_.defrag_aborted->add();
    if (so_.defrag_unblock_failures != nullptr) {
      so_.defrag_unblock_failures->add();
    }
    if (so_.tracing) {
      config_.obs.emit(obs::instant("defrag", "defrag.plan_aborted", now)
                           .arg("job", plan.head)
                           .arg("moves",
                                static_cast<std::int64_t>(plan.moves.size())));
    }
    return;
  }
  const double cost = config_.defrag.migration_cost;
  for (const MigrationMove& m : plan.moves) {
    RunningJob& rj = running_[running_index_.at(m.job)];
    // The pause is modelled as extended occupancy: the job keeps its
    // requested nodes busy (now at the destination) for `cost` extra
    // seconds. The old run's completion event becomes a ghost via the
    // generation bump, exactly like kill-and-requeue.
    const double new_end = rj.end_time + cost;
    const std::int64_t gen = ++generation_[m.job];
    events_.push(new_end, EventType::kCompletion, m.job, gen);
    rj.end_time = new_end;
    const int waste_delta = m.to.wasted_nodes() - rj.allocation.wasted_nodes();
    rj.allocation = m.to;
    if (waste_delta != 0) timeline_.record_waste(now, waste_delta);
    ++metrics_.migrations;
    metrics_.migration_node_seconds +=
        static_cast<double>(rj.allocation.allocated_nodes()) * cost;
    if (so_.defrag_migrations != nullptr) so_.defrag_migrations->add();
    // The destination is a fresh grant for auditing purposes: the WAL
    // records release+grant so replay reconstructs the same placements,
    // and the resilience audit re-certifies RNB on the new partition.
    if (config_.grant_audit) config_.grant_audit(now, rj.allocation, state_);
    if (release_hook_) release_hook_(now, m.job, false);
    if (grant_hook_) grant_hook_(now, rj.allocation);
    if (so_.tracing) {
      config_.obs.emit(
          obs::instant("defrag", "defrag.migration_start", now)
              .arg("job", m.job)
              .arg("nodes",
                   static_cast<std::int64_t>(rj.allocation.requested_nodes))
              .arg("resume", now + cost));
    }
  }
  ++migrations_in_flight_;
  unblock_job_ = plan.head;
  unblock_check_pending_ = true;
  events_.push(now + cost, EventType::kMigrationDone, plan.head, 0);
}

void SimEngine::handle_migration_done(double now) {
  if (migrations_in_flight_ > 0) --migrations_in_flight_;
  if (so_.tracing) {
    config_.obs.emit(obs::instant("defrag", "defrag.migration_done", now)
                         .arg("in_flight",
                              static_cast<std::int64_t>(migrations_in_flight_)));
  }
}

void SimEngine::step() {
  if (events_.empty()) throw std::logic_error("step() on an idle engine");
  if (!run_start_emitted_) {
    run_start_emitted_ = true;
    if (so_.tracing) {
      config_.obs.emit(
          obs::instant("sim", "sim.run_start", 0.0)
              .arg("allocator", allocator_->name())
              .arg("jobs", static_cast<std::int64_t>(jobs_.size()))
              .arg("total_nodes",
                   static_cast<std::int64_t>(topo_->total_nodes()))
              .arg("isolating",
                   static_cast<std::int64_t>(allocator_->isolating() ? 1 : 0)));
    }
  }
  const double now = events_.top().time;
  if (was_backlogged_) {
    // The interval since the previous event ran with a non-empty wait
    // queue: it counts toward steady-state utilization.
    backlogged_seconds_ += now - last_event_time_;
    backlogged_busy_area_ +=
        static_cast<double>(timeline_.busy_now()) * (now - last_event_time_);
    backlogged_waste_area_ +=
        static_cast<double>(timeline_.waste_now()) * (now - last_event_time_);
  }
  last_event_time_ = now;
  any_event_processed_ = true;
  while (!events_.empty() && events_.top().time == now) {
    const Event e = events_.pop();
    if (e.type == EventType::kFailure || e.type == EventType::kRepair) {
      handle_fault_event(now, e);
      continue;
    }
    if (e.type == EventType::kMigrationStart) {
      handle_migration_start(now);
      continue;
    }
    if (e.type == EventType::kMigrationDone) {
      handle_migration_done(now);
      continue;
    }
    const Job& job = jobs_[job_index_.at(e.job)];
    if (e.type == EventType::kArrival) {
      handle_arrival(now, job);
    } else {
      handle_completion(now, e, job);
    }
  }
  scheduling_pass(now);
}

void SimEngine::advance_until(double t) {
  while (!events_.empty() && events_.top().time <= t) step();
}

void SimEngine::run(const std::function<bool()>& interrupted) {
  while (!events_.empty()) {
    if (interrupted && interrupted()) return;
    step();
  }
}

const SimMetrics& SimEngine::finish() {
  if (final_.has_value()) return *final_;
  SimMetrics metrics = metrics_;
  const std::size_t finished = metrics.completed + cancelled_;
  if (finished != jobs_.size()) {
    if (!allow_unfinished_) {
      throw std::logic_error("simulation ended with unfinished jobs");
    }
    // Under failure injection a job can outlive the event horizon: its
    // shape may never fit the surviving tree again. Report rather than
    // throw.
    metrics.abandoned = jobs_.size() - finished;
  }
  metrics.cancelled = cancelled_;

  metrics.makespan = last_completion_ - first_arrival_;
  metrics.mean_turnaround_all =
      metrics.completed == 0
          ? 0.0
          : turnaround_sum_ / static_cast<double>(metrics.completed);
  metrics.mean_turnaround_large =
      metrics.large_jobs == 0
          ? 0.0
          : turnaround_large_sum_ / static_cast<double>(metrics.large_jobs);
  metrics.mean_wait = metrics.completed == 0
                          ? 0.0
                          : wait_sum_ / static_cast<double>(metrics.completed);
  metrics.mean_sched_time_per_job =
      metrics.completed == 0
          ? 0.0
          : metrics.sched_wall_seconds /
                static_cast<double>(metrics.completed);

  if (!turnarounds_.empty()) {
    const SortedSamples sorted(turnarounds_);
    metrics.p50_turnaround = sorted.percentile(50);
    metrics.p90_turnaround = sorted.percentile(90);
    metrics.p99_turnaround = sorted.percentile(99);
  }

  metrics.steady_start = first_backlog_;
  metrics.steady_end = last_backlog_;
  if (backlogged_seconds_ > 0.0) {
    const double capacity =
        static_cast<double>(topo_->total_nodes()) * backlogged_seconds_;
    metrics.steady_utilization = backlogged_busy_area_ / capacity;
    metrics.steady_waste = backlogged_waste_area_ / capacity;
  } else {
    // The queue never backed up (very light load): fall back to the whole
    // span so the metric is still defined.
    metrics.steady_start = first_arrival_;
    metrics.steady_end = last_completion_;
    metrics.steady_utilization =
        timeline_.utilization(first_arrival_, last_completion_);
    metrics.steady_waste =
        timeline_.waste_fraction(first_arrival_, last_completion_);
  }
  if (config_.collect_instant_samples) {
    for (const auto& [time, percent] : samples_) {
      (void)time;
      metrics.instant_utilization.push_back(percent);
    }
  }
  if (so_.tracing) {
    config_.obs.emit(
        obs::instant("sim", "sim.run_end", last_completion_)
            .arg("allocator", allocator_->name())
            .arg("completed", static_cast<std::int64_t>(metrics.completed))
            .arg("makespan", metrics.makespan)
            .arg("steady_utilization", metrics.steady_utilization)
            .arg("sched_wall_seconds", metrics.sched_wall_seconds));
  }
  final_ = std::move(metrics);
  return *final_;
}

JobPhase SimEngine::phase(JobId id) const {
  const auto it = phase_.find(id);
  return it == phase_.end() ? JobPhase::kUnknown : it->second;
}

std::optional<SimEngine::JobStatus> SimEngine::status(JobId id) const {
  const auto it = job_index_.find(id);
  if (it == job_index_.end()) return std::nullopt;
  JobStatus s;
  s.job = jobs_[it->second];
  s.phase = phase(id);
  const auto st = start_time_.find(id);
  if (st != start_time_.end() &&
      (s.phase == JobPhase::kRunning || s.phase == JobPhase::kCompleted)) {
    s.start = st->second;
  }
  const auto et = end_time_.find(id);
  if (et != end_time_.end()) s.end = et->second;
  if (s.phase == JobPhase::kQueued && id == head_blocked_job_) {
    s.blocked_reason = head_blocked_reason_;
  }
  return s;
}

}  // namespace jigsaw
