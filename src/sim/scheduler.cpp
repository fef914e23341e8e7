#include "sim/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "obs/scoped_timer.hpp"

namespace jigsaw {

namespace {

/// Metric handles a scheduling pass updates; resolved once per pass so
/// the per-allocate-call cost is an increment, not a map lookup. The
/// `enabled` flag folds the tracing/metering tests into one predictable
/// branch: with a null ObsContext every per-allocate-call instrumentation
/// site is a single well-predicted compare-and-skip.
struct PassObs {
  bool enabled = false;
  bool tracing = false;
  obs::Counter* alloc_calls = nullptr;
  obs::Counter* search_steps = nullptr;
  obs::Counter* budget_exhaustions = nullptr;
  obs::Counter* backfill_accepted = nullptr;
  obs::Counter* backfill_rejected = nullptr;
  obs::Counter* cache_hits = nullptr;
  obs::Counter* quick_rejects = nullptr;
  obs::Counter* backfill_memo_skips = nullptr;
  obs::Histogram* call_seconds = nullptr;
  obs::Histogram* steps_per_call = nullptr;
  /// Blocked-reason attribution (§3.2 condition classes): one counter per
  /// BlockedReason value (index = enum value; kNone stays null because a
  /// failed head attempt always has a reason), plus the total number of
  /// attributed passes so `sum(sched.blocked.*) == sched.head_blocked_passes`
  /// holds by construction.
  obs::Counter* head_blocked_passes = nullptr;
  obs::Counter* blocked[6] = {};

  explicit PassObs(const obs::ObsContext* o) {
    if (o == nullptr || !o->enabled()) return;
    enabled = true;
    tracing = o->tracing();
    if (!o->metering()) return;
    obs::MetricsRegistry& m = *o->metrics;
    alloc_calls = &m.counter("alloc.calls");
    search_steps = &m.counter("alloc.search_steps");
    budget_exhaustions = &m.counter("alloc.budget_exhaustions");
    backfill_accepted = &m.counter("sched.backfill_accepted");
    backfill_rejected = &m.counter("sched.backfill_rejected");
    cache_hits = &m.counter("sched.cache_hits");
    quick_rejects = &m.counter("sched.quick_reject");
    backfill_memo_skips = &m.counter("sched.backfill_memo_skips");
    call_seconds = &m.histogram("alloc.call_seconds");
    steps_per_call = &m.histogram("alloc.search_steps_per_call");
    head_blocked_passes = &m.counter("sched.head_blocked_passes");
    for (int r = 1; r <= static_cast<int>(BlockedReason::kBudgetExhausted);
         ++r) {
      blocked[r] = &m.counter(
          std::string("sched.blocked.") +
          blocked_reason_name(static_cast<BlockedReason>(r)));
    }
  }
};

/// Sorted-vector resource membership over the shadow placement, probed
/// per backfill candidate that would outlive the reservation, so
/// contiguous binary searches beat node-per-node tree walks. Built at
/// most once per pass, and only when such a candidate first appears.
struct ResourceSet {
  std::vector<NodeId> nodes;
  std::vector<LeafWire> leaf_wires;
  std::vector<L2Wire> l2_wires;

  explicit ResourceSet(const Allocation& a)
      : nodes(a.nodes), leaf_wires(a.leaf_wires), l2_wires(a.l2_wires) {
    std::sort(nodes.begin(), nodes.end());
    std::sort(leaf_wires.begin(), leaf_wires.end());
    std::sort(l2_wires.begin(), l2_wires.end());
  }

  bool disjoint_from(const Allocation& a) const {
    for (const NodeId n : a.nodes) {
      if (std::binary_search(nodes.begin(), nodes.end(), n)) return false;
    }
    for (const LeafWire& w : a.leaf_wires) {
      if (std::binary_search(leaf_wires.begin(), leaf_wires.end(), w)) {
        return false;
      }
    }
    for (const L2Wire& w : a.l2_wires) {
      if (std::binary_search(l2_wires.begin(), l2_wires.end(), w)) {
        return false;
      }
    }
    return true;
  }
};

}  // namespace

std::vector<EasyScheduler::Decision> EasyScheduler::schedule(
    double now, ClusterState& state,
    const std::deque<PendingJob>& pending,
    const std::vector<RunningJob>& running, PassStats* stats,
    Cache* cache, const obs::ObsContext* obs) const {
  std::vector<Decision> decisions;
  if (pending.empty()) return decisions;

  const PassObs po(obs);
  // All speculative mutation this pass makes — head starts, shadow-probe
  // releases, backfill placements — happens inside this transaction and
  // is rolled back on every return path, restoring the caller's state
  // (revision included) bit-identically. Cache comparisons therefore pin
  // the revision observed at pass entry.
  const std::uint64_t entry_revision = state.revision();
  ClusterState::Txn pass_txn(state);
  // `context` labels why the allocate call happened: "head" (FIFO start
  // attempt), "shadow_probe" (reservation search against a hypothetical
  // future state), or "backfill" (window candidate).
  auto try_alloc = [&](const ClusterState& s, const PendingJob& p,
                       const char* context,
                       SearchStats* search_out = nullptr)
      -> std::optional<Allocation> {
    SearchStats search;
    if (quick_reject_ &&
        allocator_->quick_reject(s, JobRequest{p.id, p.nodes, p.bandwidth})) {
      // The screen is sound: allocate() would certainly have failed, so
      // skipping the search is decision-neutral. Counted separately from
      // allocate_calls — the search never ran.
      if (search_out != nullptr) *search_out = search;
      if (stats != nullptr) ++stats->quick_rejects;
      if (po.enabled) {
        if (po.quick_rejects != nullptr) po.quick_rejects->add();
        if (po.tracing) {
          obs::TraceEvent e = obs::instant("alloc", "alloc.attempt", now);
          e.arg("allocator", allocator_->name())
              .arg("job", p.id)
              .arg("requested_nodes", static_cast<std::int64_t>(p.nodes))
              .arg("context", std::string(context))
              .arg("steps", static_cast<std::int64_t>(0))
              .arg("ok", static_cast<std::int64_t>(0))
              .arg("reason", std::string("quick_reject"));
          obs->emit(e);
        }
      }
      return std::nullopt;
    }
    obs::ScopedTimer timer(po.call_seconds, po.call_seconds != nullptr);
    auto result = allocator_->allocate(
        s, JobRequest{p.id, p.nodes, p.bandwidth}, &search);
    timer.stop();
    if (search_out != nullptr) *search_out = search;
    if (stats != nullptr) {
      ++stats->allocate_calls;
      stats->search_steps += search.steps;
      if (search.budget_exhausted) ++stats->budget_exhaustions;
    }
    if (!po.enabled) return result;
    if (po.alloc_calls != nullptr) {
      po.alloc_calls->add();
      po.search_steps->add(search.steps);
      if (search.budget_exhausted) po.budget_exhaustions->add();
      po.steps_per_call->add(static_cast<double>(search.steps));
    }
    if (po.tracing) {
      obs::TraceEvent e = obs::instant("alloc", "alloc.attempt", now);
      e.arg("allocator", allocator_->name())
          .arg("job", p.id)
          .arg("requested_nodes", static_cast<std::int64_t>(p.nodes))
          .arg("context", std::string(context))
          .arg("steps", static_cast<std::int64_t>(search.steps))
          .arg("ok", static_cast<std::int64_t>(result.has_value() ? 1 : 0));
      if (result.has_value()) {
        e.arg("allocated_nodes",
              static_cast<std::int64_t>(result->allocated_nodes()))
            .arg("wasted_nodes",
                 static_cast<std::int64_t>(result->wasted_nodes()))
            .arg("leaf_wires",
                 static_cast<std::int64_t>(result->leaf_wires.size()))
            .arg("l2_wires",
                 static_cast<std::int64_t>(result->l2_wires.size()));
      } else {
        e.arg("reason", std::string(search.budget_exhausted
                                        ? "budget_exhausted"
                                        : "no_placement"));
      }
      obs->emit(e);
    }
    return result;
  };

  // Cached fast path: the cluster is unchanged since a pass that left this
  // same head blocked (an arrival-only event). Skip the head retry and
  // shadow recomputation; only backfill candidates beyond the ones already
  // examined can possibly start.
  const bool cache_hit = cache != nullptr &&
                         cache->revision == entry_revision &&
                         cache->blocked_head == pending.front().id;
  std::size_t head_index = 0;
  std::optional<Allocation> shadow_alloc;
  double shadow_time = std::numeric_limits<double>::infinity();
  std::size_t first_candidate_offset = 0;  // into the backfill window

  if (cache_hit && po.cache_hits != nullptr) po.cache_hits->add();
  if (cache_hit) {
    // Replay the memoized attribution so per-job status stays populated
    // across arrival-only passes without re-running diagnose().
    if (stats != nullptr && cache->blocked_reason != BlockedReason::kNone) {
      stats->head_blocked_reason = cache->blocked_reason;
      stats->head_blocked_job = cache->blocked_head;
    }
    if (!cache->shadow.has_value()) return decisions;  // still no reservation
    shadow_alloc = cache->shadow;
    shadow_time = cache->shadow_time;
    // The examined-prefix shortcut relies on candidates keeping their
    // order across passes, which only FIFO order guarantees (SJBF
    // re-sorts the window on every arrival, so it stays uncached).
    if (order_ == BackfillOrder::kFifo) {
      first_candidate_offset = cache->examined;
    }
  } else {
    // FIFO: start head jobs while they fit. The failing attempt's search
    // stats survive the loop so attribution below can distinguish a
    // budget-exhausted search from a genuine condition rejection.
    SearchStats head_search;
    while (head_index < pending.size()) {
      auto alloc = try_alloc(state, pending[head_index], "head", &head_search);
      if (!alloc.has_value()) break;
      state.apply(*alloc);
      decisions.push_back(Decision{head_index, std::move(*alloc)});
      ++head_index;
    }
    if (head_index >= pending.size()) return decisions;

    // Head is blocked: find its shadow reservation by replaying
    // completions (running jobs and the jobs just started) in end order.
    const PendingJob& head = pending[head_index];
    struct Ending {
      double end;
      const Allocation* allocation;
    };
    std::vector<Ending> endings;
    endings.reserve(running.size() + decisions.size());
    for (const RunningJob& r : running) {
      endings.push_back(Ending{r.end_time, &r.allocation});
    }
    for (const Decision& d : decisions) {
      endings.push_back(Ending{now + pending[d.pending_index].est_runtime,
                               &d.allocation});
    }
    std::sort(endings.begin(), endings.end(),
              [](const Ending& a, const Ending& b) { return a.end < b.end; });

    {
      // Released-prefix ladder: rung e holds a nested transaction that
      // released endings[e]. Moving the probe prefix from r to k costs
      // |k - r| release/rollback steps, so the gallop below pays
      // O(prefix reached) releases instead of re-releasing a prefix per
      // probe. The rungs must unwind in reverse before this scope exits
      // (Txns are LIFO), which set_prefix(0) guarantees on every path.
      std::vector<ClusterState::Txn> rungs;
      rungs.reserve(endings.size());
      auto set_prefix = [&](std::size_t k) {
        while (rungs.size() > k) {
          rungs.back().rollback();
          rungs.pop_back();
        }
        while (rungs.size() < k) {
          rungs.emplace_back(state);
          state.release(*endings[rungs.size() - 1].allocation);
        }
      };
      // Node-count bound: a release frees at most nodes.size() nodes
      // (fewer when some have failed), so no prefix shorter than the one
      // that could first cover head.nodes can place the head. The head
      // just failed at prefix 0, so the search starts at 1 or later.
      std::size_t bound = 0;
      std::int64_t reachable = state.total_free_nodes();
      while (bound < endings.size() && reachable < head.nodes) {
        reachable += static_cast<std::int64_t>(
            endings[bound].allocation->nodes.size());
        ++bound;
      }
      // Every successful probe overwrites shadow_alloc; galloping probes
      // successes at strictly shrinking prefixes, so the survivor is the
      // placement at the minimal prefix, with no re-probe.
      const std::size_t k = gallop_first_fit(
          std::max<std::size_t>(bound, 1), endings.size(),
          [&](std::size_t prefix) {
            set_prefix(prefix);
            auto alloc = try_alloc(state, head, "shadow_probe");
            if (!alloc.has_value()) return false;
            shadow_alloc = std::move(alloc);
            return true;
          });
      if (k <= endings.size()) shadow_time = endings[k - 1].end;
      set_prefix(0);
    }
    // §3.2 blocked-reason attribution for the failed head placement.
    // Runs only under an enabled ObsContext: diagnose() is a read-only
    // re-probe of the allocator, and a disabled-obs pass must do exactly
    // the work the pre-observability scheduler did. The state here is the
    // one the head's failed attempt saw (the release rungs above have all
    // been rolled back). A budget-exhausted real attempt short-circuits —
    // the search never reached a verdict, so re-probing can't name a
    // condition class for it.
    BlockedReason reason = BlockedReason::kNone;
    if (po.enabled) {
      reason = head_search.budget_exhausted
                   ? BlockedReason::kBudgetExhausted
                   : allocator_->diagnose(
                         state,
                         JobRequest{head.id, head.nodes, head.bandwidth});
      if (po.head_blocked_passes != nullptr &&
          reason != BlockedReason::kNone) {
        po.head_blocked_passes->add();
        po.blocked[static_cast<int>(reason)]->add();
      }
    }
    if (stats != nullptr && reason != BlockedReason::kNone) {
      stats->head_blocked_reason = reason;
      stats->head_blocked_job = head.id;
    }
    if (po.tracing) {
      obs::TraceEvent e = obs::instant("sched", "sched.head_blocked", now);
      e.arg("job", head.id)
          .arg("requested_nodes", static_cast<std::int64_t>(head.nodes))
          .arg("blocked_reason", std::string(blocked_reason_name(reason)))
          .arg("reserved",
               static_cast<std::int64_t>(shadow_alloc.has_value() ? 1 : 0));
      if (shadow_alloc.has_value()) e.arg("shadow_time", shadow_time);
      obs->emit(e);
    }
    if (cache != nullptr && decisions.empty()) {
      // Only an unchanged-queue-head, no-decision pass is reusable: any
      // started job mutates the cluster and invalidates the revision.
      cache->revision = entry_revision;
      cache->blocked_head = head.id;
      cache->shadow = shadow_alloc;
      cache->shadow_time = shadow_time;
      cache->examined = 0;
      cache->blocked_reason = reason;
    }
    if (!shadow_alloc.has_value()) return decisions;  // cannot reserve; wait
  }

  // Backfill inside the lookahead window without delaying the reservation.
  if (window_ <= 0) return decisions;
  std::optional<ResourceSet> shadow_resources;

  std::vector<std::size_t> candidates;
  for (std::size_t k = head_index + 1;
       k < pending.size() &&
       candidates.size() < static_cast<std::size_t>(window_);
       ++k) {
    candidates.push_back(k);
  }
  if (order_ == BackfillOrder::kShortestFirst) {
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](std::size_t a, std::size_t b) {
                       return pending[a].est_runtime < pending[b].est_runtime;
                     });
  }

  auto note_backfill = [&](const PendingJob& p, const char* outcome,
                           bool accepted) {
    if (!po.enabled) return;
    if (accepted) {
      if (po.backfill_accepted != nullptr) po.backfill_accepted->add();
    } else if (po.backfill_rejected != nullptr) {
      po.backfill_rejected->add();
    }
    if (po.tracing) {
      obs->emit(obs::instant("sched", "sched.backfill", now)
                    .arg("job", p.id)
                    .arg("requested_nodes", static_cast<std::int64_t>(p.nodes))
                    .arg("outcome", std::string(outcome)));
    }
  };

  // Per-pass failure memo. From here on the pass only takes resources,
  // and allocate() reads nothing of a request but its node count and
  // bandwidth, so a key that failed definitively earlier in this loop
  // fails again. A search cut short by the step budget proved nothing
  // and is not remembered.
  std::vector<std::pair<int, double>> failed_keys;
  auto failed_before = [&](const PendingJob& p) {
    return std::find(failed_keys.begin(), failed_keys.end(),
                     std::pair<int, double>{p.nodes, p.bandwidth}) !=
           failed_keys.end();
  };

  std::size_t examined = first_candidate_offset;
  for (std::size_t c = first_candidate_offset; c < candidates.size();
       ++c, ++examined) {
    const std::size_t k = candidates[c];
    if (failed_before(pending[k])) {
      if (stats != nullptr) ++stats->backfill_memo_skips;
      if (po.backfill_memo_skips != nullptr) po.backfill_memo_skips->add();
      note_backfill(pending[k], "no_placement", false);
      continue;
    }
    SearchStats search;
    auto trial = try_alloc(state, pending[k], "backfill", &search);
    if (!trial.has_value()) {
      if (!search.budget_exhausted) {
        failed_keys.emplace_back(pending[k].nodes, pending[k].bandwidth);
      }
      note_backfill(pending[k], "no_placement", false);
      continue;
    }
    bool safe = now + pending[k].est_runtime <= shadow_time + 1e-9;
    if (!safe) {
      if (!shadow_resources.has_value()) {
        shadow_resources.emplace(*shadow_alloc);
      }
      safe = shadow_resources->disjoint_from(*trial);
    }
    if (!safe) {
      note_backfill(pending[k], "would_delay_reservation", false);
      continue;
    }
    note_backfill(pending[k], "accepted", true);
    state.apply(*trial);
    decisions.push_back(Decision{k, std::move(*trial)});
  }
  // Persist the examined prefix for both miss and cache-hit passes that
  // started nothing: the next arrival-only pass resumes where this one
  // stopped instead of re-probing the whole window.
  if (cache != nullptr && decisions.empty() &&
      order_ == BackfillOrder::kFifo &&
      cache->revision == entry_revision &&
      cache->blocked_head == pending.front().id) {
    cache->examined = examined;
  }
  return decisions;
}

}  // namespace jigsaw
