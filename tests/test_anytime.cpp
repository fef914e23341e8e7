// Anytime deadline-bounded placement search (core/candidate_scan.hpp):
// soundness guards and the order fact the search rests on.
//
// The contract under test has two legs. (1) A real deadline may trade
// placement quality and hit rate but never soundness: anything
// allocate() returns under any deadline must still pass
// ClusterState::can_apply and, for the isolating schemes, the full §3.2
// condition checks. (2) The canonical shape orders are best fit first,
// which is why Jigsaw and LaaS probe them unchanged under a deadline.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/candidate_scan.hpp"
#include "core/conditions.hpp"
#include "core/jigsaw_allocator.hpp"
#include "core/laas.hpp"
#include "core/lc.hpp"
#include "core/shapes.hpp"
#include "core/ta.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace jigsaw {
namespace {

/// Fill `state` with a deterministic fragmented workload: apply jobs of
/// random sizes until the first failure, then release roughly a third of
/// them. Returns the next unused job id.
JobId fragment(const Allocator& alloc, ClusterState& state, Rng& rng) {
  std::vector<Allocation> held;
  JobId next = 1;
  for (int i = 0; i < 64; ++i) {
    const int nodes = 1 + static_cast<int>(rng.below(12));
    const auto a = alloc.allocate(state, JobRequest{next, nodes, 0.0});
    if (!a.has_value()) break;
    state.apply(*a);
    held.push_back(*a);
    ++next;
  }
  for (std::size_t i = 0; i < held.size(); ++i) {
    if (rng.below(3) == 0) state.release(held[i]);
  }
  return next;
}

// ---- leg 1: deadlines trade quality, never soundness --------------------

// Even a 1 ns deadline (expired before the first expiry check) must
// return either nothing or a placement that passes the scheme's full
// isolation conditions — the position-0 liveness exemption guarantees the
// first candidate always gets a complete verdict.
TEST(Anytime, TinyDeadlinePlacementsAreFeasibleOrNull) {
  const FatTree topo = FatTree::from_radix(16);
  const JigsawAllocator jigsaw;
  const LaasAllocator laas;
  const LeastConstrainedAllocator lcs(true);
  const TaAllocator ta;
  const Allocator* schemes[] = {&jigsaw, &laas, &lcs, &ta};

  for (const Allocator* alloc : schemes) {
    ClusterState state(topo);
    Rng rng(0xDEAD11 + static_cast<std::uint64_t>(alloc->isolating()));
    JobId next = fragment(*alloc, state, rng);
    int granted = 0;
    for (const std::int64_t deadline_ns : {std::int64_t{1}, std::int64_t{50'000}}) {
      for (int nodes = 1; nodes <= topo.total_nodes(); nodes += 3) {
        SCOPED_TRACE(alloc->name() + " deadline " +
                     std::to_string(deadline_ns) + "ns nodes " +
                     std::to_string(nodes));
        SearchStats stats;
        const auto got = alloc->allocate(
            state, JobRequest{next, nodes, 1.0},
            AllocBudget{deadline_ns}, &stats);
        if (!got.has_value()) continue;
        ++granted;
        ASSERT_TRUE(state.can_apply(*got));
        if (alloc == &jigsaw || alloc == &laas) {
          const ConditionReport full = check_full_bandwidth(topo, *got);
          EXPECT_TRUE(full.ok) << full.error;
        }
        if (alloc == &jigsaw) {
          const ConditionReport high = check_high_utilization(topo, *got);
          EXPECT_TRUE(high.ok) << high.error;
        }
      }
    }
    EXPECT_GT(granted, 0) << alloc->name();
  }
}

// Full trace under finite deadlines: every job still completes and every
// grant still passes the §3.2 audit. The deadline metrics surface on the
// attached registry.
TEST(Anytime, FiniteDeadlineSimCompletesWithAuditedGrants) {
  Trace trace = named_synthetic("Synth-16", 400);
  Rng rng(0xBADC0FFEEULL);
  assign_bandwidth_classes(trace, rng);
  const FatTree topo = FatTree::from_radix(16);
  const JigsawAllocator jigsaw;
  const LaasAllocator laas;

  for (const std::int64_t deadline_us : {std::int64_t{1}, std::int64_t{100}}) {
    for (const Allocator* alloc :
         {static_cast<const Allocator*>(&jigsaw),
          static_cast<const Allocator*>(&laas)}) {
      SCOPED_TRACE(alloc->name() + " deadline " +
                   std::to_string(deadline_us) + "us");
      obs::MetricsRegistry registry;
      SimConfig config;
      config.alloc_deadline_us = deadline_us;
      config.obs.metrics = &registry;
      std::size_t grants = 0;
      config.grant_audit = [&](double, const Allocation& a,
                               const ClusterState&) {
        ++grants;
        const ConditionReport full = check_full_bandwidth(topo, a);
        EXPECT_TRUE(full.ok) << full.error;
      };
      const SimMetrics m = simulate(topo, *alloc, trace, config);
      EXPECT_EQ(m.completed, trace.jobs.size());
      EXPECT_GT(grants, 0u);

      // The anytime surface is wired: the slack histogram saw every
      // budget-bounded call, and the hit counters exist (they may stay
      // zero on a fast host, never negative-sense).
      const obs::Histogram* slack =
          registry.find_histogram("alloc.deadline_slack_seconds");
      ASSERT_NE(slack, nullptr);
      EXPECT_GT(slack->count(), 0u);
      ASSERT_NE(registry.find_counter("sched.deadline_hits"), nullptr);
      const obs::Counter* commits =
          registry.find_counter("sched.anytime_commits");
      ASSERT_NE(commits, nullptr);
      EXPECT_LE(commits->value(),
                registry.find_counter("sched.deadline_hits")->value());
    }
  }
}

// ---- leg 2: the canonical orders are best fit first ---------------------

/// Along two_level_shapes the leaves touched never decrease; along the
/// whole-leaf three_level_shapes every shape touches ceil(n / m1) leaves
/// and the subtrees touched never decrease. A first-feasible scan in
/// these orders — cut short by a deadline or not — therefore commits the
/// best-fitting feasible shape it reached, with no reordering.
void expect_best_fit_first(const FatTree& topo) {
  const int m1 = topo.nodes_per_leaf();
  for (int n = 1; n <= topo.total_nodes(); ++n) {
    const auto s2 = two_level_shapes(n, topo);
    for (std::size_t i = 1; i < s2.size(); ++i) {
      ASSERT_LE(s2[i - 1].leaves_touched(), s2[i].leaves_touched())
          << "two-level " << topo.describe() << " n=" << n << " i=" << i;
    }
    const auto s3 = three_level_shapes(n, topo, true);
    for (std::size_t i = 0; i < s3.size(); ++i) {
      const ThreeLevelShape& s = s3[i];
      const int leaves = s.full_trees * s.leaves_per_tree +
                         s.rem_full_leaves + (s.rem_leaf_nodes > 0 ? 1 : 0);
      ASSERT_EQ(leaves, (n + m1 - 1) / m1)
          << "three-level " << topo.describe() << " n=" << n << " i=" << i;
      if (i > 0) {
        ASSERT_LE(s3[i - 1].trees_touched(), s.trees_touched())
            << "three-level " << topo.describe() << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Anytime, CanonicalShapeOrdersAreBestFitFirst) {
  for (int m1 = 1; m1 <= 12; ++m1) {
    for (int m2 = 1; m2 <= 12; ++m2) {
      for (const int m3 : {1, 2, 3, 5, 8}) {
        expect_best_fit_first(FatTree(m1, m2, m3));
      }
    }
  }
  for (const int radix : {16, 18, 28}) {
    expect_best_fit_first(FatTree::from_radix(radix));
  }
}

}  // namespace
}  // namespace jigsaw
