// SimEngine state serialization for the service snapshot subsystem.
//
// The blob captures *everything* the event loop reads: a restored engine
// must process the same events in the same order, make the same
// scheduling decisions (warm EasyScheduler cache included, so
// search_steps/allocate_calls stay bit-identical), and integrate the
// same utilization areas — finish() on the restored engine produces
// %.17g-identical SimMetrics to finish() on the original.
//
// Derived structures (job_index_, queue_job_index_, running_index_, and
// ClusterState's incremental capacity indices) are rebuilt on load
// rather than stored. Hash maps are emitted sorted by key so the same
// state always produces the same bytes — the snapshot tests pin
// serialize(deserialize(blob)) == blob.

#include <algorithm>
#include <string>
#include <string_view>

#include "sim/engine.hpp"
#include "util/binio.hpp"

namespace jigsaw {

namespace {

// v2: SimMetrics gained quick_rejects (admission quick-reject screen).
// v3: live defragmentation — DefragConfig guard fields, migration
//     accounting in SimMetrics, and the in-flight migration state
//     (pending plan, open window, unblock check, stall throttle) so a
//     recovered engine resumes or cleanly finishes a mid-window run.
// v4: SimMetrics gained backfill_memo_skips (per-pass failure memo).
constexpr std::uint32_t kEngineBlobVersion = 4;

void put_allocation(BufWriter& w, const Allocation& a) {
  w.i64(a.job);
  w.i64(a.requested_nodes);
  w.u64(a.nodes.size());
  for (const NodeId n : a.nodes) w.u32(static_cast<std::uint32_t>(n));
  w.u64(a.leaf_wires.size());
  for (const LeafWire& lw : a.leaf_wires) {
    w.u32(static_cast<std::uint32_t>(lw.leaf));
    w.u32(static_cast<std::uint32_t>(lw.l2_index));
  }
  w.u64(a.l2_wires.size());
  for (const L2Wire& lw : a.l2_wires) {
    w.u32(static_cast<std::uint32_t>(lw.tree));
    w.u32(static_cast<std::uint32_t>(lw.l2_index));
    w.u32(static_cast<std::uint32_t>(lw.spine_index));
  }
  w.f64(a.bandwidth);
}

Allocation get_allocation(BufReader& r) {
  Allocation a;
  a.job = r.i64();
  a.requested_nodes = static_cast<int>(r.i64());
  const std::uint64_t nodes = r.u64();
  if (nodes > r.remaining() / 4) {
    r.fail();
    return a;
  }
  a.nodes.reserve(static_cast<std::size_t>(nodes));
  for (std::uint64_t k = 0; k < nodes; ++k) {
    a.nodes.push_back(static_cast<NodeId>(r.u32()));
  }
  const std::uint64_t lws = r.u64();
  if (lws > r.remaining() / 8) {
    r.fail();
    return a;
  }
  a.leaf_wires.reserve(static_cast<std::size_t>(lws));
  for (std::uint64_t k = 0; k < lws; ++k) {
    LeafWire lw;
    lw.leaf = static_cast<LeafId>(r.u32());
    lw.l2_index = static_cast<std::int32_t>(r.u32());
    a.leaf_wires.push_back(lw);
  }
  const std::uint64_t l2ws = r.u64();
  if (l2ws > r.remaining() / 12) {
    r.fail();
    return a;
  }
  a.l2_wires.reserve(static_cast<std::size_t>(l2ws));
  for (std::uint64_t k = 0; k < l2ws; ++k) {
    L2Wire lw;
    lw.tree = static_cast<TreeId>(r.u32());
    lw.l2_index = static_cast<std::int32_t>(r.u32());
    lw.spine_index = static_cast<std::int32_t>(r.u32());
    a.l2_wires.push_back(lw);
  }
  a.bandwidth = r.f64();
  return a;
}

void put_metrics(BufWriter& w, const SimMetrics& m) {
  w.f64(m.steady_utilization);
  w.f64(m.steady_waste);
  w.f64(m.steady_start);
  w.f64(m.steady_end);
  w.f64(m.makespan);
  w.f64(m.mean_turnaround_all);
  w.f64(m.mean_turnaround_large);
  w.u64(m.large_jobs);
  w.f64(m.mean_wait);
  w.u64(m.completed);
  w.f64(m.sched_wall_seconds);
  w.u64(m.sched_passes);
  w.u64(m.allocate_calls);
  w.u64(m.search_steps);
  w.u64(m.budget_exhaustions);
  w.u64(m.quick_rejects);
  w.u64(m.backfill_memo_skips);
  w.f64(m.mean_sched_time_per_job);
  w.u64(m.fault_events);
  w.u64(m.resources_failed);
  w.u64(m.resources_repaired);
  w.u64(m.jobs_killed);
  w.u64(m.jobs_requeued);
  w.u64(m.grants_rejected);
  w.u64(m.abandoned);
  w.u64(m.cancelled);
  w.f64s(m.instant_utilization);
  w.f64(m.p50_turnaround);
  w.f64(m.p90_turnaround);
  w.f64(m.p99_turnaround);
  w.u64(m.job_records.size());
  for (const JobRecord& jr : m.job_records) {
    w.i64(jr.job);
    w.i64(jr.nodes);
    w.f64(jr.arrival);
    w.f64(jr.start);
    w.f64(jr.end);
  }
  w.u64(m.migration_plans);
  w.u64(m.migration_plans_failed);
  w.u64(m.migration_plans_aborted);
  w.u64(m.migrations);
  w.f64(m.migration_node_seconds);
  w.u64(m.head_unblocks);
  w.u64(m.head_unblock_failures);
}

SimMetrics get_metrics(BufReader& r) {
  SimMetrics m;
  m.steady_utilization = r.f64();
  m.steady_waste = r.f64();
  m.steady_start = r.f64();
  m.steady_end = r.f64();
  m.makespan = r.f64();
  m.mean_turnaround_all = r.f64();
  m.mean_turnaround_large = r.f64();
  m.large_jobs = static_cast<std::size_t>(r.u64());
  m.mean_wait = r.f64();
  m.completed = static_cast<std::size_t>(r.u64());
  m.sched_wall_seconds = r.f64();
  m.sched_passes = r.u64();
  m.allocate_calls = r.u64();
  m.search_steps = r.u64();
  m.budget_exhaustions = r.u64();
  m.quick_rejects = r.u64();
  m.backfill_memo_skips = r.u64();
  m.mean_sched_time_per_job = r.f64();
  m.fault_events = r.u64();
  m.resources_failed = r.u64();
  m.resources_repaired = r.u64();
  m.jobs_killed = r.u64();
  m.jobs_requeued = r.u64();
  m.grants_rejected = r.u64();
  m.abandoned = static_cast<std::size_t>(r.u64());
  m.cancelled = static_cast<std::size_t>(r.u64());
  m.instant_utilization = r.f64s();
  m.p50_turnaround = r.f64();
  m.p90_turnaround = r.f64();
  m.p99_turnaround = r.f64();
  const std::uint64_t records = r.u64();
  if (records > r.remaining() / 40) {
    r.fail();
    return m;
  }
  m.job_records.reserve(static_cast<std::size_t>(records));
  for (std::uint64_t k = 0; k < records; ++k) {
    JobRecord jr;
    jr.job = r.i64();
    jr.nodes = static_cast<int>(r.i64());
    jr.arrival = r.f64();
    jr.start = r.f64();
    jr.end = r.f64();
    m.job_records.push_back(jr);
  }
  m.migration_plans = r.u64();
  m.migration_plans_failed = r.u64();
  m.migration_plans_aborted = r.u64();
  m.migrations = r.u64();
  m.migration_node_seconds = r.f64();
  m.head_unblocks = r.u64();
  m.head_unblock_failures = r.u64();
  return m;
}

/// Hash maps serialize sorted by key, so identical state produces
/// identical bytes regardless of hashing history.
template <typename V, typename PutValue>
void put_map(BufWriter& w, const std::unordered_map<JobId, V>& map,
             PutValue put_value) {
  std::vector<JobId> keys;
  keys.reserve(map.size());
  for (const auto& [k, v] : map) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  w.u64(keys.size());
  for (const JobId k : keys) {
    w.i64(k);
    put_value(map.at(k));
  }
}

}  // namespace

bool SimEngine::serialize(std::string* out, std::string* error) const {
  if (traffic_ != nullptr) {
    if (error != nullptr) {
      *error = "measured-interference mode is not snapshotable";
    }
    return false;
  }
  if (state_.in_txn()) {
    if (error != nullptr) *error = "serialize inside a scheduling pass";
    return false;
  }
  BufWriter w(*out);
  w.u32(kEngineBlobVersion);

  // Compat guard: a blob only restores into an engine built over the
  // same tree shape, allocator, and backfill policy.
  w.u32(static_cast<std::uint32_t>(topo_->total_nodes()));
  w.u32(static_cast<std::uint32_t>(topo_->trees()));
  w.u32(static_cast<std::uint32_t>(topo_->nodes_per_leaf()));
  w.str(allocator_->name());
  w.u32(static_cast<std::uint32_t>(config_.backfill_window));
  w.u8(speedups_ ? 1 : 0);
  w.u8(config_.defrag.enabled ? 1 : 0);
  w.f64(config_.defrag.migration_cost);
  w.u32(static_cast<std::uint32_t>(config_.defrag.max_moves));
  w.u32(static_cast<std::uint32_t>(config_.defrag.max_candidates));
  w.u64(config_.defrag.max_probes);

  const ClusterState::RawState raw = state_.raw_state();
  w.u64s(raw.free_nodes);
  w.u64s(raw.free_leaf_up);
  w.u64s(raw.free_l2_up);
  w.u64s(raw.healthy_nodes);
  w.u64s(raw.healthy_leaf_up);
  w.u64s(raw.healthy_l2_up);
  w.f64s(raw.residual_leaf_up);
  w.f64s(raw.residual_l2_up);
  w.u64(raw.revision);

  w.u64(sched_cache_.revision);
  w.i64(sched_cache_.blocked_head);
  w.u64(sched_cache_.examined);
  w.u8(sched_cache_.shadow.has_value() ? 1 : 0);
  if (sched_cache_.shadow.has_value()) put_allocation(w, *sched_cache_.shadow);
  w.f64(sched_cache_.shadow_time);
  w.u8(static_cast<std::uint8_t>(sched_cache_.blocked_reason));

  // Canonical (seq-sorted) order, not heap-array order: the heap is
  // rebuilt on restore, so byte-determinism must not depend on layout.
  std::vector<Event> pending(events_.events());
  std::sort(pending.begin(), pending.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  w.u64(pending.size());
  for (const Event& e : pending) {
    w.f64(e.time);
    w.u8(static_cast<std::uint8_t>(e.type));
    w.i64(e.job);
    w.i64(e.aux);
    w.u64(e.seq);
  }
  w.u64(events_.next_seq());

  w.u64(jobs_.size());
  for (const Job& j : jobs_) {
    w.i64(j.id);
    w.f64(j.arrival);
    w.i64(j.nodes);
    w.f64(j.runtime);
    w.f64(j.bandwidth);
  }

  put_map(w, phase_,
          [&](JobPhase p) { w.u8(static_cast<std::uint8_t>(p)); });

  w.u64(fault_events_.size());
  for (const fault::FaultEvent& fe : fault_events_) {
    w.f64(fe.time);
    w.u8(fe.failure ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(fe.target.kind));
    w.u32(static_cast<std::uint32_t>(fe.target.a));
    w.u32(static_cast<std::uint32_t>(fe.target.b));
    w.u32(static_cast<std::uint32_t>(fe.target.c));
  }

  w.u64(queue_.size());
  for (const PendingJob& p : queue_) {
    w.i64(p.id);
    w.i64(p.nodes);
    w.f64(p.bandwidth);
    w.f64(p.est_runtime);
  }

  // running_ order matters: release uses swap-remove, so the vector's
  // layout is part of the deterministic state.
  w.u64(running_.size());
  for (const RunningJob& rj : running_) {
    w.i64(rj.id);
    w.f64(rj.end_time);
    put_allocation(w, rj.allocation);
  }

  w.u8(static_cast<std::uint8_t>(head_blocked_reason_));
  w.i64(head_blocked_job_);

  w.i64(timeline_.busy_now());
  w.i64(timeline_.waste_now());
  w.u64(timeline_.points().size());
  for (const UtilizationTimeline::Point& p : timeline_.points()) {
    w.f64(p.time);
    w.i64(p.busy);
    w.i64(p.waste);
  }

  put_metrics(w, metrics_);
  w.u64(cancelled_);
  w.f64(backlogged_seconds_);
  w.f64(backlogged_busy_area_);
  w.f64(backlogged_waste_area_);
  w.u8(was_backlogged_ ? 1 : 0);
  w.u8(any_event_processed_ ? 1 : 0);
  w.u8(run_start_emitted_ ? 1 : 0);
  w.u8(allow_unfinished_ ? 1 : 0);
  w.f64(last_event_time_);

  w.u64(samples_.size());
  for (const auto& [time, percent] : samples_) {
    w.f64(time);
    w.f64(percent);
  }
  w.f64s(turnarounds_);
  w.f64(turnaround_sum_);
  w.f64(turnaround_large_sum_);
  w.f64(wait_sum_);

  put_map(w, start_time_, [&](double v) { w.f64(v); });
  put_map(w, end_time_, [&](double v) { w.f64(v); });
  put_map(w, generation_, [&](std::int64_t v) { w.i64(v); });

  w.f64(first_arrival_);
  w.f64(last_completion_);
  w.f64(first_backlog_);
  w.f64(last_backlog_);

  // Defrag dynamic state: a snapshot can land between plan adoption and
  // its kMigrationStart event, or inside an open migration window.
  w.u8(pending_plan_.has_value() ? 1 : 0);
  if (pending_plan_.has_value()) {
    w.i64(pending_plan_->head);
    w.u64(pending_plan_->moves.size());
    for (const MigrationMove& m : pending_plan_->moves) {
      w.i64(m.job);
      put_allocation(w, m.from);
      put_allocation(w, m.to);
    }
    w.f64(pending_plan_->score);
  }
  w.u32(static_cast<std::uint32_t>(migrations_in_flight_));
  w.i64(unblock_job_);
  w.u8(unblock_check_pending_ ? 1 : 0);
  w.i64(last_defrag_job_);
  w.u64(last_defrag_revision_);

  w.u8(final_.has_value() ? 1 : 0);
  if (final_.has_value()) put_metrics(w, *final_);
  return true;
}

bool SimEngine::deserialize(std::string_view blob, std::string* error) {
  const auto fail = [error](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (traffic_ != nullptr) {
    return fail("measured-interference mode is not snapshotable");
  }
  BufReader r(blob);
  if (r.u32() != kEngineBlobVersion) {
    return fail("engine blob version mismatch");
  }
  if (r.u32() != static_cast<std::uint32_t>(topo_->total_nodes()) ||
      r.u32() != static_cast<std::uint32_t>(topo_->trees()) ||
      r.u32() != static_cast<std::uint32_t>(topo_->nodes_per_leaf())) {
    return fail("engine blob topology mismatch");
  }
  if (r.str() != allocator_->name()) {
    return fail("engine blob allocator mismatch");
  }
  if (r.u32() != static_cast<std::uint32_t>(config_.backfill_window)) {
    return fail("engine blob backfill-window mismatch");
  }
  if (r.u8() != (speedups_ ? 1 : 0)) {
    return fail("engine blob speedup-model mismatch");
  }
  if (r.u8() != (config_.defrag.enabled ? 1 : 0) ||
      r.f64() != config_.defrag.migration_cost ||
      r.u32() != static_cast<std::uint32_t>(config_.defrag.max_moves) ||
      r.u32() != static_cast<std::uint32_t>(config_.defrag.max_candidates) ||
      r.u64() != config_.defrag.max_probes) {
    return fail("engine blob defrag-config mismatch");
  }

  ClusterState::RawState raw;
  raw.free_nodes = r.u64s();
  raw.free_leaf_up = r.u64s();
  raw.free_l2_up = r.u64s();
  raw.healthy_nodes = r.u64s();
  raw.healthy_leaf_up = r.u64s();
  raw.healthy_l2_up = r.u64s();
  raw.residual_leaf_up = r.f64s();
  raw.residual_l2_up = r.f64s();
  raw.revision = r.u64();
  if (!r.ok()) return fail("truncated engine blob (cluster state)");
  if (!state_.load_raw_state(raw)) {
    return fail("engine blob cluster-state shape mismatch");
  }

  sched_cache_ = EasyScheduler::Cache{};
  sched_cache_.revision = r.u64();
  sched_cache_.blocked_head = r.i64();
  sched_cache_.examined = static_cast<std::size_t>(r.u64());
  if (r.u8() != 0) sched_cache_.shadow = get_allocation(r);
  sched_cache_.shadow_time = r.f64();
  sched_cache_.blocked_reason = static_cast<BlockedReason>(r.u8());

  const std::uint64_t event_count = r.u64();
  if (event_count > r.remaining() / 33) {
    return fail("truncated engine blob (events)");
  }
  std::vector<Event> events;
  events.reserve(static_cast<std::size_t>(event_count));
  for (std::uint64_t k = 0; k < event_count; ++k) {
    Event e;
    e.time = r.f64();
    e.type = static_cast<EventType>(r.u8());
    e.job = r.i64();
    e.aux = r.i64();
    e.seq = r.u64();
    events.push_back(e);
  }
  events_.restore(std::move(events), r.u64());

  const std::uint64_t job_count = r.u64();
  if (job_count > r.remaining() / 40) {
    return fail("truncated engine blob (jobs)");
  }
  jobs_.clear();
  jobs_.reserve(static_cast<std::size_t>(job_count));
  job_index_.clear();
  for (std::uint64_t k = 0; k < job_count; ++k) {
    Job j;
    j.id = r.i64();
    j.arrival = r.f64();
    j.nodes = static_cast<int>(r.i64());
    j.runtime = r.f64();
    j.bandwidth = r.f64();
    job_index_[j.id] = jobs_.size();
    jobs_.push_back(j);
  }

  phase_.clear();
  const std::uint64_t phase_count = r.u64();
  if (phase_count > r.remaining() / 9) {
    return fail("truncated engine blob (phases)");
  }
  for (std::uint64_t k = 0; k < phase_count; ++k) {
    const JobId id = r.i64();
    phase_[id] = static_cast<JobPhase>(r.u8());
  }

  fault_events_.clear();
  const std::uint64_t fault_count = r.u64();
  if (fault_count > r.remaining() / 22) {
    return fail("truncated engine blob (faults)");
  }
  for (std::uint64_t k = 0; k < fault_count; ++k) {
    fault::FaultEvent fe;
    fe.time = r.f64();
    fe.failure = r.u8() != 0;
    fe.target.kind = static_cast<fault::ResourceKind>(r.u8());
    fe.target.a = static_cast<std::int32_t>(r.u32());
    fe.target.b = static_cast<std::int32_t>(r.u32());
    fe.target.c = static_cast<std::int32_t>(r.u32());
    fault_events_.push_back(fe);
  }

  queue_.clear();
  queue_job_index_.clear();
  const std::uint64_t queue_count = r.u64();
  if (queue_count > r.remaining() / 32) {
    return fail("truncated engine blob (queue)");
  }
  for (std::uint64_t k = 0; k < queue_count; ++k) {
    PendingJob p;
    p.id = r.i64();
    p.nodes = static_cast<int>(r.i64());
    p.bandwidth = r.f64();
    p.est_runtime = r.f64();
    const auto it = job_index_.find(p.id);
    if (it == job_index_.end()) {
      return fail("engine blob queue references unknown job");
    }
    queue_.push_back(p);
    queue_job_index_.push_back(it->second);
  }

  running_.clear();
  running_index_.clear();
  const std::uint64_t running_count = r.u64();
  if (running_count > r.remaining() / 16) {
    return fail("truncated engine blob (running)");
  }
  for (std::uint64_t k = 0; k < running_count; ++k) {
    RunningJob rj;
    rj.id = r.i64();
    rj.end_time = r.f64();
    rj.allocation = get_allocation(r);
    running_index_[rj.id] = running_.size();
    running_.push_back(std::move(rj));
  }

  head_blocked_reason_ = static_cast<BlockedReason>(r.u8());
  head_blocked_job_ = r.i64();

  const int busy = static_cast<int>(r.i64());
  const int waste = static_cast<int>(r.i64());
  const std::uint64_t point_count = r.u64();
  if (point_count > r.remaining() / 24) {
    return fail("truncated engine blob (timeline)");
  }
  std::vector<UtilizationTimeline::Point> points;
  points.reserve(static_cast<std::size_t>(point_count));
  for (std::uint64_t k = 0; k < point_count; ++k) {
    UtilizationTimeline::Point p;
    p.time = r.f64();
    p.busy = static_cast<int>(r.i64());
    p.waste = static_cast<int>(r.i64());
    points.push_back(p);
  }
  timeline_.restore(busy, waste, std::move(points));

  metrics_ = get_metrics(r);
  cancelled_ = static_cast<std::size_t>(r.u64());
  backlogged_seconds_ = r.f64();
  backlogged_busy_area_ = r.f64();
  backlogged_waste_area_ = r.f64();
  was_backlogged_ = r.u8() != 0;
  any_event_processed_ = r.u8() != 0;
  run_start_emitted_ = r.u8() != 0;
  allow_unfinished_ = r.u8() != 0;
  last_event_time_ = r.f64();

  samples_.clear();
  const std::uint64_t sample_count = r.u64();
  if (sample_count > r.remaining() / 16) {
    return fail("truncated engine blob (samples)");
  }
  for (std::uint64_t k = 0; k < sample_count; ++k) {
    const double time = r.f64();
    const double percent = r.f64();
    samples_.emplace_back(time, percent);
  }
  turnarounds_ = r.f64s();
  turnaround_sum_ = r.f64();
  turnaround_large_sum_ = r.f64();
  wait_sum_ = r.f64();

  const auto get_f64_map = [&](std::unordered_map<JobId, double>& map,
                               const char* what) {
    map.clear();
    const std::uint64_t n = r.u64();
    if (n > r.remaining() / 16) {
      if (error != nullptr) *error = what;
      return false;
    }
    for (std::uint64_t k = 0; k < n; ++k) {
      const JobId id = r.i64();
      map[id] = r.f64();
    }
    return true;
  };
  if (!get_f64_map(start_time_, "truncated engine blob (start times)")) {
    return false;
  }
  if (!get_f64_map(end_time_, "truncated engine blob (end times)")) {
    return false;
  }
  generation_.clear();
  const std::uint64_t gen_count = r.u64();
  if (gen_count > r.remaining() / 16) {
    return fail("truncated engine blob (generations)");
  }
  for (std::uint64_t k = 0; k < gen_count; ++k) {
    const JobId id = r.i64();
    generation_[id] = r.i64();
  }

  first_arrival_ = r.f64();
  last_completion_ = r.f64();
  first_backlog_ = r.f64();
  last_backlog_ = r.f64();

  pending_plan_.reset();
  if (r.u8() != 0) {
    DefragPlan plan;
    plan.head = r.i64();
    const std::uint64_t move_count = r.u64();
    if (move_count > r.remaining() / 24) {
      return fail("truncated engine blob (defrag plan)");
    }
    plan.moves.reserve(static_cast<std::size_t>(move_count));
    for (std::uint64_t k = 0; k < move_count; ++k) {
      MigrationMove m;
      m.job = r.i64();
      m.from = get_allocation(r);
      m.to = get_allocation(r);
      plan.moves.push_back(std::move(m));
    }
    plan.score = r.f64();
    pending_plan_ = std::move(plan);
  }
  migrations_in_flight_ = static_cast<int>(r.u32());
  unblock_job_ = r.i64();
  unblock_check_pending_ = r.u8() != 0;
  last_defrag_job_ = r.i64();
  last_defrag_revision_ = r.u64();

  final_.reset();
  if (r.u8() != 0) final_ = get_metrics(r);

  if (!r.ok()) return fail("truncated engine blob");
  if (r.remaining() != 0) return fail("trailing bytes in engine blob");
  return true;
}

}  // namespace jigsaw
