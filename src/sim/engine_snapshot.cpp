// SimEngine state serialization for the service snapshot subsystem.
//
// The blob captures *everything* the event loop reads: a restored engine
// must process the same events in the same order, make the same
// scheduling decisions (warm EasyScheduler cache included, so
// search_steps/allocate_calls stay bit-identical), and integrate the
// same utilization areas — finish() on the restored engine produces
// %.17g-identical SimMetrics to finish() on the original.
//
// The format is the field lists below, each run by both serialize() and
// deserialize() (util/binio.hpp). Derived structures (job_index_,
// queue_job_index_, running_index_, the event heap, and ClusterState's
// incremental capacity indices) are rebuilt after a read rather than
// stored. Hash maps are emitted sorted by key so the same state always
// produces the same bytes — the snapshot tests pin
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

/// Compat guard: a blob only restores into an engine built over the
/// same tree shape, allocator, backfill policy, speedup model and
/// defrag config.
struct BlobGuard {
  std::uint32_t version = kEngineBlobVersion;
  std::uint32_t total_nodes = 0;
  std::uint32_t trees = 0;
  std::uint32_t nodes_per_leaf = 0;
  std::string allocator;
  std::uint32_t backfill_window = 0;
  bool speedups = false;
  DefragConfig defrag;
};

constexpr auto guard_fields = [](auto& io, auto& g) {
  io.u32(g.version);
  io.u32(g.total_nodes);
  io.u32(g.trees);
  io.u32(g.nodes_per_leaf);
  io.str(g.allocator);
  io.u32(g.backfill_window);
  io.flag(g.speedups);
  io.flag(g.defrag.enabled);
  io.f64(g.defrag.migration_cost);
  io.u32(g.defrag.max_moves);
  io.u32(g.defrag.max_candidates);
  io.u64(g.defrag.max_probes);
};

BlobGuard live_guard(const FatTree& topo, const Allocator& allocator,
                     const SimConfig& config, bool speedups) {
  BlobGuard g;
  g.total_nodes = static_cast<std::uint32_t>(topo.total_nodes());
  g.trees = static_cast<std::uint32_t>(topo.trees());
  g.nodes_per_leaf = static_cast<std::uint32_t>(topo.nodes_per_leaf());
  g.allocator = allocator.name();
  g.backfill_window = static_cast<std::uint32_t>(config.backfill_window);
  g.speedups = speedups;
  g.defrag = config.defrag;
  return g;
}

/// Why a blob recorded under `blob` cannot restore into an engine
/// guarded by `live`; null when it can.
const char* guard_mismatch(const BlobGuard& blob, const BlobGuard& live) {
  if (blob.version != live.version) return "engine blob version mismatch";
  if (blob.total_nodes != live.total_nodes || blob.trees != live.trees ||
      blob.nodes_per_leaf != live.nodes_per_leaf) {
    return "engine blob topology mismatch";
  }
  if (blob.allocator != live.allocator) {
    return "engine blob allocator mismatch";
  }
  if (blob.backfill_window != live.backfill_window) {
    return "engine blob backfill-window mismatch";
  }
  if (blob.speedups != live.speedups) {
    return "engine blob speedup-model mismatch";
  }
  const DefragConfig& a = blob.defrag;
  const DefragConfig& b = live.defrag;
  if (a.enabled != b.enabled || a.migration_cost != b.migration_cost ||
      a.max_moves != b.max_moves || a.max_candidates != b.max_candidates ||
      a.max_probes != b.max_probes) {
    return "engine blob defrag-config mismatch";
  }
  return nullptr;
}

constexpr auto raw_state_fields = [](auto& io, auto& raw) {
  io.seq(raw.free_nodes, u64_each);
  io.seq(raw.free_leaf_up, u64_each);
  io.seq(raw.free_l2_up, u64_each);
  io.seq(raw.healthy_nodes, u64_each);
  io.seq(raw.healthy_leaf_up, u64_each);
  io.seq(raw.healthy_l2_up, u64_each);
  io.seq(raw.residual_leaf_up, f64_each);
  io.seq(raw.residual_l2_up, f64_each);
  io.u64(raw.revision);
};

constexpr auto sched_cache_fields = [](auto& io, auto& c) {
  io.u64(c.revision);
  io.i64(c.blocked_head);
  io.u64(c.examined);
  io.opt(c.shadow, allocation_fields);
  io.f64(c.shadow_time);
  io.enum8(c.blocked_reason, BlockedReason::kBudgetExhausted);
};

constexpr auto event_fields = [](auto& io, auto& e) {
  io.f64(e.time);
  io.enum8(e.type, EventType::kMigrationDone);
  io.i64(e.job);
  io.i64(e.aux);
  io.u64(e.seq);
};

constexpr auto phase_fields = [](auto& io, auto& phase) {
  io.enum8(phase, JobPhase::kCancelled);
};

constexpr auto pending_job_fields = [](auto& io, auto& p) {
  io.i64(p.id);
  io.i64(p.nodes);
  io.f64(p.bandwidth);
  io.f64(p.est_runtime);
};

constexpr auto running_job_fields = [](auto& io, auto& rj) {
  io.i64(rj.id);
  io.f64(rj.end_time);
  allocation_fields(io, rj.allocation);
};

constexpr auto timeline_point_fields = [](auto& io, auto& p) {
  io.f64(p.time);
  io.i64(p.busy);
  io.i64(p.waste);
};

constexpr auto sample_fields = [](auto& io, auto& s) {
  io.f64(s.first);   // time
  io.f64(s.second);  // utilization percent
};

constexpr auto move_fields = [](auto& io, auto& m) {
  io.i64(m.job);
  allocation_fields(io, m.from);
  allocation_fields(io, m.to);
};

constexpr auto plan_fields = [](auto& io, auto& plan) {
  io.i64(plan.head);
  io.seq(plan.moves, move_fields);
  io.f64(plan.score);
};

/// Every node and wire id of `a` lies inside `topo`. A blob can pass its
/// CRC and still name ids past the tree, and ClusterState::release()
/// indexes with them unchecked.
bool ids_in_range(const FatTree& topo, const Allocation& a) {
  const auto below = [](std::int64_t id, int bound) {
    return id >= 0 && id < bound;
  };
  return std::all_of(a.nodes.begin(), a.nodes.end(),
                     [&](NodeId n) { return below(n, topo.total_nodes()); }) &&
         std::all_of(a.leaf_wires.begin(), a.leaf_wires.end(),
                     [&](const LeafWire& w) {
                       return below(w.leaf, topo.total_leaves()) &&
                              below(w.l2_index, topo.l2_per_tree());
                     }) &&
         std::all_of(a.l2_wires.begin(), a.l2_wires.end(),
                     [&](const L2Wire& w) {
                       return below(w.tree, topo.trees()) &&
                              below(w.l2_index, topo.l2_per_tree()) &&
                              below(w.spine_index, topo.spines_per_group());
                     });
}

}  // namespace

struct SimEngine::BlobParts {
  ClusterState::RawState raw;
  /// Canonical (seq-sorted) order, not heap-array order: the heap is
  /// rebuilt on restore, so byte-determinism must not depend on layout.
  std::vector<Event> events;
  std::uint64_t next_seq = 0;
};

template <typename IO, typename Self>
void SimEngine::blob_fields(IO& io, Self& e, BlobParts& parts) {
  raw_state_fields(io, parts.raw);
  sched_cache_fields(io, e.sched_cache_);
  io.seq(parts.events, event_fields);
  io.u64(parts.next_seq);
  io.seq(e.jobs_, job_fields);
  io.map(e.phase_, phase_fields);
  io.seq(e.fault_events_, fault::event_fields);
  io.seq(e.queue_, pending_job_fields);
  // running_ order matters: release uses swap-remove, so the vector's
  // layout is part of the deterministic state.
  io.seq(e.running_, running_job_fields);
  io.enum8(e.head_blocked_reason_, BlockedReason::kBudgetExhausted);
  io.i64(e.head_blocked_job_);

  io.i64(e.timeline_.busy_);
  io.i64(e.timeline_.waste_);
  io.seq(e.timeline_.points_, timeline_point_fields);

  metrics_fields(io, e.metrics_);
  io.u64(e.cancelled_);
  io.f64(e.backlogged_seconds_);
  io.f64(e.backlogged_busy_area_);
  io.f64(e.backlogged_waste_area_);
  io.flag(e.was_backlogged_);
  io.flag(e.any_event_processed_);
  io.flag(e.run_start_emitted_);
  io.flag(e.allow_unfinished_);
  io.f64(e.last_event_time_);

  io.seq(e.samples_, sample_fields);
  io.seq(e.turnarounds_, f64_each);
  io.f64(e.turnaround_sum_);
  io.f64(e.turnaround_large_sum_);
  io.f64(e.wait_sum_);

  io.map(e.start_time_, f64_each);
  io.map(e.end_time_, f64_each);
  io.map(e.generation_, i64_each);

  io.f64(e.first_arrival_);
  io.f64(e.last_completion_);
  io.f64(e.first_backlog_);
  io.f64(e.last_backlog_);

  // Defrag dynamic state: a snapshot can land between plan adoption and
  // its kMigrationStart event, or inside an open migration window.
  io.opt(e.pending_plan_, plan_fields);
  io.u32(e.migrations_in_flight_);
  io.i64(e.unblock_job_);
  io.flag(e.unblock_check_pending_);
  io.i64(e.last_defrag_job_);
  io.u64(e.last_defrag_revision_);

  io.opt(e.final_, metrics_fields);
}

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
  BlobParts parts{state_.raw_state(), events_.events(), events_.next_seq()};
  std::sort(parts.events.begin(), parts.events.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  const BlobGuard guard = live_guard(*topo_, *allocator_, config_, speedups_);
  BufWriter w(*out);
  guard_fields(w, guard);
  blob_fields(w, *this, parts);
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
  BlobGuard guard;
  guard_fields(r, guard);
  if (!r.ok()) return fail("truncated or damaged engine blob guard");
  if (const char* why = guard_mismatch(
          guard, live_guard(*topo_, *allocator_, config_, speedups_))) {
    return fail(why);
  }

  BlobParts parts;
  blob_fields(r, *this, parts);
  if (!r.ok()) return fail("truncated or damaged engine blob");
  if (r.remaining() != 0) return fail("trailing bytes in engine blob");

  // Rebuild what the blob does not store, refusing state the event loop
  // would trip over.
  if (!state_.load_raw_state(parts.raw)) {
    return fail("engine blob cluster-state shape mismatch");
  }
  job_index_.clear();
  for (std::size_t k = 0; k < jobs_.size(); ++k) job_index_[jobs_[k].id] = k;
  queue_job_index_.clear();
  for (const PendingJob& p : queue_) {
    const auto it = job_index_.find(p.id);
    if (it == job_index_.end()) {
      return fail("engine blob queue references unknown job");
    }
    queue_job_index_.push_back(it->second);
  }
  running_index_.clear();
  for (std::size_t k = 0; k < running_.size(); ++k) {
    running_index_[running_[k].id] = k;
  }
  bool ids_ok = true;
  for (const RunningJob& rj : running_) {
    ids_ok = ids_ok && ids_in_range(*topo_, rj.allocation);
  }
  if (sched_cache_.shadow.has_value()) {
    ids_ok = ids_ok && ids_in_range(*topo_, *sched_cache_.shadow);
  }
  if (pending_plan_.has_value()) {
    for (const auto& move : pending_plan_->moves) {
      ids_ok = ids_ok && ids_in_range(*topo_, move.from) &&
               ids_in_range(*topo_, move.to);
    }
  }
  if (!ids_ok) return fail("engine blob allocation id outside the tree");
  // A pending fault's target expands into unchecked ClusterState indices.
  for (const fault::FaultEvent& fe : fault_events_) {
    if (!fault::validate(*topo_, fe.target).empty()) {
      return fail("engine blob fault target outside the tree");
    }
  }
  for (std::size_t k = 0; k < parts.events.size(); ++k) {
    const Event& ev = parts.events[k];
    if (ev.seq >= parts.next_seq ||
        (k > 0 && ev.seq <= parts.events[k - 1].seq)) {
      return fail("engine blob event sequence out of order");
    }
    const bool names_job = ev.type == EventType::kArrival ||
                           ev.type == EventType::kCompletion;
    if (names_job && job_index_.count(ev.job) == 0) {
      return fail("engine blob event references unknown job");
    }
    const bool names_fault = ev.type == EventType::kFailure ||
                             ev.type == EventType::kRepair;
    if (names_fault &&
        (ev.aux < 0 ||
         static_cast<std::uint64_t>(ev.aux) >= fault_events_.size())) {
      return fail("engine blob event references unknown fault");
    }
  }
  events_.restore(std::move(parts.events), parts.next_seq);
  return true;
}

}  // namespace jigsaw
