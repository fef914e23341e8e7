// Equivalence guard for the zero-copy scheduling rewrite.
//
// The transactional hot path (undo journal + incremental capacity
// indices) must be behavior-preserving, not just invariant-preserving:
// with a fixed seed, every scheme makes the same decisions as the
// copy-based implementation it replaced. The constants below were dumped
// with %.17g from the pre-rewrite library (and re-verified against the
// rewritten one) on Synth-16 at 800 jobs; EXPECT_DOUBLE_EQ demands the
// exact same bits back, and search_steps/allocate_calls pin the
// decision sequence, not just the aggregate outcome. A second golden runs
// the same five schemes at 2000 jobs and demands exact equality.
// search_steps and allocate_calls were re-pinned when the scheduling pass
// stopped repeating searches whose answer it already held (galloped
// shadow search, per-pass backfill failure memo, capacity-screened
// probes); every utilization, makespan and turnaround constant held.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>

#include "core/baseline.hpp"
#include "core/jigsaw_allocator.hpp"
#include "core/laas.hpp"
#include "core/lc.hpp"
#include "core/ta.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"

namespace jigsaw {
namespace {

struct Golden {
  const Allocator& alloc;
  double steady_utilization;
  double makespan;
  double mean_turnaround_all;
  std::uint64_t search_steps;
  std::uint64_t allocate_calls;
};

TEST(TxnEquivalence, Figure6Synth16GoldenMetrics) {
  Trace trace = named_synthetic("Synth-16", 800);
  Rng rng(0xBADC0FFEEULL);
  assign_bandwidth_classes(trace, rng);
  const FatTree topo = FatTree::from_radix(16);

  const BaselineAllocator baseline;
  const LeastConstrainedAllocator lcs(true);
  const JigsawAllocator jigsaw;
  const LaasAllocator laas;
  const TaAllocator ta;
  const Golden goldens[] = {
      {baseline, 0.9884978419357644, 21581.536623877728, 10029.040864509567,
       1019371, 35118},
      {lcs, 0.95529866820414855, 22191.466093482868, 9945.6543904451664,
       467922, 37585},
      {jigsaw, 0.95399724473007541, 22448.816490811365, 9751.5165563178252,
       120409, 36952},
      {laas, 0.91342250553047133, 23258.598207377014, 10224.410517353494,
       102219, 36563},
      {ta, 0.86142643856618784, 24606.814746996362, 11018.747574776913,
       904538, 37717},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.alloc.name());
    const SimMetrics m = simulate(topo, g.alloc, trace, SimConfig{});
    EXPECT_DOUBLE_EQ(m.steady_utilization, g.steady_utilization);
    EXPECT_DOUBLE_EQ(m.makespan, g.makespan);
    EXPECT_DOUBLE_EQ(m.mean_turnaround_all, g.mean_turnaround_all);
    EXPECT_EQ(m.search_steps, g.search_steps);
    EXPECT_EQ(m.allocate_calls, g.allocate_calls);
  }
}

// The longer companion of the 800-job golden: all five schemes on
// Synth-16 at 2000 jobs, constants dumped with %.17g (which round-trips
// a double exactly, so EXPECT_EQ compares bits).
TEST(TxnEquivalence, Synth16Golden2000Jobs) {
  Trace trace = named_synthetic("Synth-16", 2000);
  Rng rng(0xBADC0FFEEULL);
  assign_bandwidth_classes(trace, rng);
  const FatTree topo = FatTree::from_radix(16);

  const BaselineAllocator baseline;
  const LeastConstrainedAllocator lcs(true);
  const JigsawAllocator jigsaw;
  const LaasAllocator laas;
  const TaAllocator ta;
  const Golden goldens[] = {
      {baseline, 0.98848489293726394, 50972.627913662196, 24738.700639499279,
       2744012, 92897},
      {lcs, 0.95733164553366179, 52720.457253746245, 25122.045235523306,
       1661746, 100002},
      {jigsaw, 0.95387521249130025, 52987.266386010502, 24783.906333569212,
       311895, 97403},
      {laas, 0.90562891769691156, 55766.359690644669, 26160.731744023666,
       284692, 96493},
      {ta, 0.86383506990582326, 58256.486995265703, 27573.175480554226,
       2238182, 99241},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.alloc.name());
    const SimMetrics m = simulate(topo, g.alloc, trace, SimConfig{});
    EXPECT_EQ(m.steady_utilization, g.steady_utilization);
    EXPECT_EQ(m.makespan, g.makespan);
    EXPECT_EQ(m.mean_turnaround_all, g.mean_turnaround_all);
    EXPECT_EQ(m.search_steps, g.search_steps);
    EXPECT_EQ(m.allocate_calls, g.allocate_calls);
  }
}

TEST(TxnEquivalence, SchedulePassLeavesStateUntouched) {
  // A scheduling pass probes dozens of speculative placements through
  // the undo journal; whatever it decides, the state it hands back must
  // be bit-identical to a fresh rebuild of the pre-pass state — down to
  // the revision counter, so the inter-pass cache stays valid.
  const FatTree t(4, 4, 4);
  ClusterState state(t);
  const JigsawAllocator jigsaw;
  const EasyScheduler sched(jigsaw, 50);

  std::vector<RunningJob> running;
  for (TreeId tree = 0; tree < 3; ++tree) {
    auto a = jigsaw.allocate(state, JobRequest{tree, 14, 0.0});
    ASSERT_TRUE(a.has_value());
    state.apply(*a);
    running.push_back(RunningJob{tree, 40.0 + 10.0 * tree, *a});
  }
  const ClusterState before = state;
  const std::uint64_t revision = state.revision();

  // Head too big to start now, several backfill candidates (some fit,
  // some do not) — a pass with real probe traffic on every branch.
  std::deque<PendingJob> queue{PendingJob{10, 40, 0.0, 100.0},
                               PendingJob{11, 8, 1.0, 30.0},
                               PendingJob{12, 16, 0.0, 500.0},
                               PendingJob{13, 4, 2.0, 10.0}};
  const auto decisions = sched.schedule(0.0, state, queue, running);
  EXPECT_FALSE(decisions.empty());

  EXPECT_EQ(state.revision(), revision);
  EXPECT_TRUE(state.check_invariants());
  EXPECT_EQ(state.total_free_nodes(), before.total_free_nodes());
  for (LeafId l = 0; l < t.total_leaves(); ++l) {
    EXPECT_EQ(state.free_nodes(l), before.free_nodes(l)) << "leaf " << l;
    EXPECT_EQ(state.free_leaf_up(l), before.free_leaf_up(l)) << "leaf " << l;
  }
  for (TreeId tr = 0; tr < t.trees(); ++tr) {
    EXPECT_EQ(state.fully_free_leaf_mask(tr), before.fully_free_leaf_mask(tr));
    EXPECT_EQ(state.tree_free_nodes(tr), before.tree_free_nodes(tr));
    for (int c = 0; c <= t.nodes_per_leaf(); ++c) {
      EXPECT_EQ(state.leaves_with_free_count(tr, c),
                before.leaves_with_free_count(tr, c));
      EXPECT_EQ(state.leaves_with_at_least(c)[static_cast<std::size_t>(tr)],
                before.leaves_with_at_least(c)[static_cast<std::size_t>(tr)]);
    }
    for (int i = 0; i < t.l2_per_tree(); ++i) {
      EXPECT_EQ(state.free_l2_up(tr, i), before.free_l2_up(tr, i));
    }
  }
}

}  // namespace
}  // namespace jigsaw
