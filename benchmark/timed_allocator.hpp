// TimedAllocator: the benchmark's view of the `core` layer.
//
// A decorator around a real placement scheme that forwards every virtual
// call unchanged and counts and times it from outside. It cannot change a
// decision: nothing in src/ reads the wrapper's search_exec(), the engine
// tells schemes apart only by name(), and every forwarded call passes the
// caller's arguments through verbatim.
//
// allocate() calls are split into two buckets. The simulator's defrag
// epilogue (SimEngine::maybe_plan_defrag) calls diagnose() on the stalled
// head and then lets the planner probe migrations through allocate(), as
// the last thing in a step. So every allocate() after a diagnose() and
// before the workload loop's next begin_step() is a planner probe, not a
// scheduling call. The scheduler itself calls diagnose() only under an
// enabled ObsContext, which no measured run has.

#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/allocator.hpp"

namespace jigsaw::benchmark {

class TimedAllocator final : public Allocator {
 public:
  using Clock = std::chrono::steady_clock;

  struct Method {
    std::uint64_t calls = 0;
    std::uint64_t hits = 0;  ///< calls that returned a placement or true
    double seconds = 0.0;
  };

  /// Everything one allocate() bucket sums from SearchStats.
  struct Search {
    std::uint64_t steps = 0;
    std::uint64_t probes = 0;
    std::uint64_t deadline_expired = 0;
  };

  explicit TimedAllocator(const Allocator& inner) : inner_(inner) {
    call_us_.reserve(1 << 20);
  }

  std::string name() const override { return inner_.name(); }
  bool isolating() const override { return inner_.isolating(); }

  std::optional<Allocation> allocate(const ClusterState& state,
                                     const JobRequest& request,
                                     const AllocBudget& budget,
                                     SearchStats* stats) const override {
    SearchStats local;
    SearchStats* s = stats != nullptr ? stats : &local;
    const SearchStats before = *s;
    const auto t0 = Clock::now();
    std::optional<Allocation> out = inner_.allocate(state, request, budget, s);
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    Method& m = in_defrag_ ? defrag_probe_ : allocate_;
    ++m.calls;
    if (out.has_value()) ++m.hits;
    m.seconds += dt;
    if (!in_defrag_) {
      call_us_.push_back(static_cast<float>(dt * 1e6));
      search_.steps += s->steps - before.steps;
      search_.probes += s->probes - before.probes;
      if (s->deadline_expired && !before.deadline_expired) {
        ++search_.deadline_expired;
      }
    }
    return out;
  }

  bool quick_reject(const ClusterState& state,
                    const JobRequest& request) const override {
    const auto t0 = Clock::now();
    const bool out = inner_.quick_reject(state, request);
    record(quick_reject_, t0, out);
    return out;
  }

  bool size_unplaceable(const FatTree& topo, int nodes) const override {
    const auto t0 = Clock::now();
    const bool out = inner_.size_unplaceable(topo, nodes);
    record(size_unplaceable_, t0, out);
    return out;
  }

  BlockedReason diagnose(const ClusterState& state,
                         const JobRequest& request) const override {
    const auto t0 = Clock::now();
    const BlockedReason out = inner_.diagnose(state, request);
    record(diagnose_, t0, out != BlockedReason::kNone);
    in_defrag_ = true;
    return out;
  }

  /// Called by the workload loop before each SimEngine::step(): closes the
  /// planner-probe window a diagnose() opened in the previous step.
  void begin_step() const { in_defrag_ = false; }

  const Method& allocate_calls() const { return allocate_; }
  const Method& defrag_probes() const { return defrag_probe_; }
  const Method& quick_rejects() const { return quick_reject_; }
  const Method& diagnoses() const { return diagnose_; }
  const Search& search() const { return search_; }
  /// Wall time of each scheduling allocate() call, microseconds.
  const std::vector<float>& call_us() const { return call_us_; }

  /// Time spent in every forwarded method.
  double total_seconds() const {
    return allocate_.seconds + defrag_probe_.seconds + quick_reject_.seconds +
           diagnose_.seconds + size_unplaceable_.seconds;
  }
  /// Time spent on the scheduling pass's own calls.
  double pass_seconds() const {
    return allocate_.seconds + quick_reject_.seconds;
  }

 private:
  static void record(Method& m, Clock::time_point t0, bool hit) {
    ++m.calls;
    if (hit) ++m.hits;
    m.seconds += std::chrono::duration<double>(Clock::now() - t0).count();
  }

  const Allocator& inner_;
  // Allocator's interface is const; the counters are the wrapper's own
  // bookkeeping, touched only by the thread that drives the engine.
  mutable Method allocate_;
  mutable Method defrag_probe_;
  mutable Method quick_reject_;
  mutable Method diagnose_;
  mutable Method size_unplaceable_;
  mutable Search search_;
  mutable std::vector<float> call_us_;
  mutable bool in_defrag_ = false;
};

/// Sums over several TimedAllocator runs (simulator repetitions, service
/// phases), and the core.* metrics they give.
struct CoreTotals {
  TimedAllocator::Method allocate;
  TimedAllocator::Method quick_reject;
  TimedAllocator::Method diagnose;
  TimedAllocator::Method defrag;
  TimedAllocator::Search search;
  double seconds = 0.0;       ///< every forwarded method
  double pass_seconds = 0.0;  ///< the scheduling pass's own calls
  std::vector<double> call_us;

  void add(const TimedAllocator& t) {
    auto sum = [](TimedAllocator::Method& into,
                  const TimedAllocator::Method& m) {
      into.calls += m.calls;
      into.hits += m.hits;
      into.seconds += m.seconds;
    };
    sum(allocate, t.allocate_calls());
    sum(quick_reject, t.quick_rejects());
    sum(diagnose, t.diagnoses());
    sum(defrag, t.defrag_probes());
    search.steps += t.search().steps;
    search.probes += t.search().probes;
    search.deadline_expired += t.search().deadline_expired;
    seconds += t.total_seconds();
    pass_seconds += t.pass_seconds();
    call_us.insert(call_us.end(), t.call_us().begin(), t.call_us().end());
  }

  void report(Result& r, double jobs) const {
    const auto calls = static_cast<double>(allocate.calls);
    const auto probes = static_cast<double>(search.probes);
    const auto steps = static_cast<double>(search.steps);
    r.metric("core.calls_per_job", calls / jobs, "count");
    r.metric("core.ok_frac", ratio(static_cast<double>(allocate.hits), calls),
             "ratio");
    r.metric("core.us_per_call", ratio(allocate.seconds, calls) * 1e6, "us");
    r.metric("core.p99_us", percentile(call_us, 99), "us");
    r.metric("core.probes_per_call", ratio(probes, calls), "count");
    r.metric("core.steps_per_probe", ratio(steps, probes), "count");
    r.metric("core.ns_per_step", ratio(allocate.seconds, steps) * 1e9, "ns");
    r.metric("core.quick_reject.calls_per_job",
             static_cast<double>(quick_reject.calls) / jobs, "count");
    r.metric("core.quick_reject.hit_frac",
             ratio(static_cast<double>(quick_reject.hits),
                   static_cast<double>(quick_reject.calls)),
             "ratio");
    r.metric("core.diagnose.calls_per_job",
             static_cast<double>(diagnose.calls) / jobs, "count");
    r.metric("defrag.probe_calls_per_job",
             static_cast<double>(defrag.calls) / jobs, "count");
  }
};

}  // namespace jigsaw::benchmark
