// Live defragmentation (src/defrag/): consolidation metric, bounded
// migration planner, and the engine's stall-detector integration.
//
// The engine tests drive a hand-crafted fragmented cluster where the
// head job is provably unblockable by exactly one migration: on
// FatTree(4, 4, 4), two 2-node jobs pin two leaves of tree 0 after
// their leaf-mates complete, three 16-node jobs hold the other trees,
// and the 12-node head needs three fully-free leaves. Moving either
// pinned job into the other's leaf consolidates tree 0 and the head
// starts ~9900 simulated seconds earlier than it would defrag-off.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/fragmentation.hpp"
#include "core/jigsaw_allocator.hpp"
#include "defrag/defrag.hpp"
#include "service/protocol.hpp"
#include "sim/engine.hpp"
#include "test_helpers.hpp"
#include "topology/fat_tree.hpp"
#include "trace/synthetic.hpp"

namespace jigsaw {
namespace {

// ---------------------------------------------------------------------------
// Consolidation metric.
// ---------------------------------------------------------------------------

TEST(DefragConsolidation, PristineClusterIsOneSolidBlock) {
  const FatTree t(4, 4, 4);
  const ClusterState state(t);
  const ConsolidationReport r = consolidation(state);
  EXPECT_EQ(r.free_nodes, 64);
  EXPECT_EQ(r.largest_tree_block, 16);   // one whole subtree
  EXPECT_EQ(r.largest_span_block, 64);   // 4 trees x 4 whole leaves x 4
  EXPECT_EQ(r.largest_block, 64);
  EXPECT_DOUBLE_EQ(r.score, 1.0);
}

TEST(DefragConsolidation, FullClusterScoresOneByConvention) {
  const FatTree t(4, 4, 4);
  ClusterState state(t);
  const JigsawAllocator jigsaw;
  const auto a = jigsaw.allocate(state, JobRequest{1, 64, 0.0});
  ASSERT_TRUE(a.has_value());
  state.apply(*a);
  const ConsolidationReport r = consolidation(state);
  EXPECT_EQ(r.free_nodes, 0);
  EXPECT_EQ(r.largest_block, 0);
  EXPECT_DOUBLE_EQ(r.score, 1.0);
}

TEST(DefragConsolidation, SingleHoleHandComputed) {
  // Two busy nodes in one leaf: that tree's histogram is [4,4,4,2], so
  // its best rectangle is 3 leaves x 4 = 12; a clean tree gives 16; the
  // whole-leaf span over [4,4,4,3] trees peaks at 48 (3 trees x 4 leaves
  // or 4 trees x 3 leaves).
  const FatTree t(4, 4, 4);
  ClusterState state(t);
  Allocation filler;
  filler.job = 7;
  filler.requested_nodes = 2;
  filler.nodes = {t.node_id(0, 0), t.node_id(0, 1)};
  state.apply(filler);
  const ConsolidationReport r = consolidation(state);
  EXPECT_EQ(r.free_nodes, 62);
  EXPECT_EQ(r.largest_tree_block, 16);
  EXPECT_EQ(r.largest_span_block, 48);
  EXPECT_EQ(r.largest_block, 48);
  EXPECT_DOUBLE_EQ(r.score, 48.0 / 62.0);
}

TEST(DefragConsolidation, ScatteredHolesShatterTheScore) {
  // One busy node in every leaf: no whole leaf survives anywhere, so the
  // span block is 0 and the best block is a single tree's 4 leaves x 3.
  const FatTree t(4, 4, 4);
  ClusterState state(t);
  for (LeafId l = 0; l < t.total_leaves(); ++l) {
    Allocation filler;
    filler.job = 100 + l;
    filler.requested_nodes = 1;
    filler.nodes = {t.node_id(l, 0)};
    state.apply(filler);
  }
  const ConsolidationReport r = consolidation(state);
  EXPECT_EQ(r.free_nodes, 48);
  EXPECT_EQ(r.largest_tree_block, 12);
  EXPECT_EQ(r.largest_span_block, 0);
  EXPECT_EQ(r.largest_block, 12);
  EXPECT_DOUBLE_EQ(r.score, 0.25);
}

// ---------------------------------------------------------------------------
// Planner.
// ---------------------------------------------------------------------------

/// The crafted fragmented state: tree 0 holds A(2) in one leaf and B(2)
/// in another (their leaf-mates already gone), trees 1-3 are fully held
/// by 16-node jobs. Returns the held allocations in [A, B, E, F, G]
/// order. 12 nodes are free but a 12-node Jigsaw job needs three fully
/// free leaves — only a migration of A or B provides them.
std::vector<Allocation> crafted_state(const JigsawAllocator& jigsaw,
                                      ClusterState& state) {
  std::vector<Allocation> held;
  const auto place = [&](JobId id, int nodes) {
    return testing::must_allocate(jigsaw, state, id, nodes);
  };
  const Allocation c = place(1, 2);  // packs a leaf with A
  held.push_back(place(2, 2));       // A
  const Allocation d = place(3, 2);  // packs a leaf with B
  held.push_back(place(4, 2));       // B
  held.push_back(place(5, 16));      // E: whole tree
  held.push_back(place(6, 16));      // F
  held.push_back(place(7, 16));      // G
  state.release(c);
  state.release(d);
  EXPECT_EQ(state.total_free_nodes(), 12);
  return held;
}

std::vector<MigrationCandidate> as_candidates(
    const std::vector<Allocation>& held) {
  std::vector<MigrationCandidate> candidates;
  for (const Allocation& a : held) {
    candidates.push_back(MigrationCandidate{a.job, &a, a.bandwidth});
  }
  return candidates;
}

TEST(DefragPlanner, FindsSingleMovePlanWithoutPerturbingState) {
  const FatTree t(4, 4, 4);
  ClusterState state(t);
  const JigsawAllocator jigsaw;
  const std::vector<Allocation> held = crafted_state(jigsaw, state);
  const JobRequest head{8, 12, 0.0};
  ASSERT_FALSE(jigsaw.allocate(state, head).has_value());  // genuinely stuck

  const ClusterState::RawState before = state.raw_state();
  DefragPlannerStats stats;
  const DefragPlanner planner(jigsaw, DefragConfig{});
  const auto plan =
      planner.plan(state, head, as_candidates(held), &stats);

  // Planning is probe-only: masks and the revision counter come back
  // bit-identical.
  const ClusterState::RawState after = state.raw_state();
  EXPECT_EQ(after.free_nodes, before.free_nodes);
  EXPECT_EQ(after.revision, before.revision);
  EXPECT_TRUE(state.check_invariants());

  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->moves.size(), 1u);  // shallowest depth wins
  EXPECT_EQ(plan->head, 8);
  // A and B are interchangeable; the deterministic tie-break picks the
  // lower job id, and packing tree 0 leaves the cluster fully solid.
  EXPECT_EQ(plan->moves[0].job, 2);
  EXPECT_DOUBLE_EQ(plan->score, 1.0);
  EXPECT_GT(stats.probes, 0u);
  EXPECT_GT(stats.plans_scored, 0u);

  // Executing the plan really unblocks the head.
  ASSERT_TRUE(apply_plan_moves(state, *plan));
  EXPECT_TRUE(state.check_invariants());
  EXPECT_TRUE(jigsaw.allocate(state, head).has_value());
}

TEST(DefragPlanner, ProbeBudgetAndMoveCapAreHardLimits) {
  const FatTree t(4, 4, 4);
  ClusterState state(t);
  const JigsawAllocator jigsaw;
  const std::vector<Allocation> held = crafted_state(jigsaw, state);
  const JobRequest head{8, 12, 0.0};

  DefragConfig no_probes;
  no_probes.max_probes = 0;
  DefragPlannerStats stats;
  EXPECT_FALSE(DefragPlanner(jigsaw, no_probes)
                   .plan(state, head, as_candidates(held), &stats)
                   .has_value());
  EXPECT_EQ(stats.probes, 0u);

  DefragConfig no_moves;
  no_moves.max_moves = 0;
  EXPECT_FALSE(DefragPlanner(jigsaw, no_moves)
                   .plan(state, head, as_candidates(held))
                   .has_value());
}

TEST(DefragPlanner, NearFinishedVictimsRankBelowLongRunners) {
  const FatTree t(4, 4, 4);
  ClusterState state(t);
  const JigsawAllocator jigsaw;
  const std::vector<Allocation> held = crafted_state(jigsaw, state);
  const JobRequest head{8, 12, 0.0};

  // A (job 2) and B (job 4) are interchangeable consolidation-wise; with
  // A about to finish, its gain is discounted by 1/(1 + migration_cost)
  // and the long-running B outranks it, so the planner migrates B.
  std::vector<MigrationCandidate> candidates = as_candidates(held);
  candidates[0].remaining = 1.0;      // A: nearly done, poor victim
  candidates[1].remaining = 10000.0;  // B: long runner
  DefragConfig config;
  auto plan = DefragPlanner(jigsaw, config).plan(state, head, candidates);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->moves.size(), 1u);
  EXPECT_EQ(plan->moves[0].job, 4);

  // Keeping only the top-ranked candidate prunes the near-finished job
  // out of the search entirely — the single survivor is still B.
  config.max_candidates = 1;
  plan = DefragPlanner(jigsaw, config).plan(state, head, candidates);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->moves.size(), 1u);
  EXPECT_EQ(plan->moves[0].job, 4);

  // With no runtime estimates (the infinite default) the discount is
  // inert and the historical lower-job-id tie-break still picks A.
  plan = DefragPlanner(jigsaw, DefragConfig{})
             .plan(state, head, as_candidates(held));
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->moves[0].job, 2);
}

TEST(DefragPlanner, NoCandidatesOrImmovableJobsYieldNoPlan) {
  const FatTree t(4, 4, 4);
  ClusterState state(t);
  const JigsawAllocator jigsaw;
  std::vector<Allocation> held = crafted_state(jigsaw, state);
  const DefragPlanner planner(jigsaw, DefragConfig{});
  EXPECT_FALSE(planner.plan(state, JobRequest{8, 12, 0.0}, {}).has_value());
  // Only the whole-tree jobs offered: releasing one lets the head in but
  // the 16-node victim can never be re-placed, so every combo fails.
  std::vector<Allocation> trees_only(held.begin() + 2, held.end());
  EXPECT_FALSE(planner
                   .plan(state, JobRequest{8, 12, 0.0},
                         as_candidates(trees_only))
                   .has_value());
}

// ---------------------------------------------------------------------------
// Engine integration.
// ---------------------------------------------------------------------------

/// Drop the two wall-clock timing fields from a metrics_json string so
/// the rest can be compared bit-for-bit across runs.
std::string scrub_wall_fields(std::string text) {
  for (const char* key :
       {"\"sched_wall_seconds\":", "\"mean_sched_time_per_job\":"}) {
    const std::size_t at = text.find(key);
    if (at == std::string::npos) continue;
    std::size_t end = text.find(',', at);
    if (end == std::string::npos) end = text.find('}', at);
    text.erase(at, end - at + 1);
  }
  return text;
}

SimMetrics run_crafted(const SimConfig& config, double* head_start,
                       std::string* metrics = nullptr) {
  const FatTree topo(4, 4, 4);
  const JigsawAllocator jigsaw;
  SimEngine engine(topo, jigsaw, config);
  for (const Job& j : testing::defrag_stall_trace()) engine.submit(j);
  engine.run();
  const SimMetrics m = engine.finish();
  if (head_start != nullptr) {
    const auto status = engine.status(8);
    *head_start = status.has_value() ? status->start : -1.0;
  }
  if (metrics != nullptr) *metrics = service::metrics_json(m);
  return m;
}

TEST(DefragEngine, MigrationUnblocksTheHeadJob) {
  SimConfig config;
  config.defrag.enabled = true;
  config.defrag.migration_cost = 40.0;
  double head_start = -1.0;
  const SimMetrics m = run_crafted(config, &head_start);

  EXPECT_EQ(m.migration_plans, 1u);
  EXPECT_EQ(m.migration_plans_failed, 0u);
  EXPECT_EQ(m.migration_plans_aborted, 0u);
  EXPECT_EQ(m.migrations, 1u);
  EXPECT_EQ(m.head_unblocks, 1u);
  EXPECT_EQ(m.head_unblock_failures, 0u);
  // One 2-node victim paused for the migration cost.
  EXPECT_DOUBLE_EQ(m.migration_node_seconds, 2.0 * 40.0);
  // The head starts the moment the leaf-mates finish instead of waiting
  // out the 10000 s jobs.
  EXPECT_DOUBLE_EQ(head_start, 100.0);
  EXPECT_EQ(m.completed, 8u);
}

TEST(DefragEngine, DisabledIsInertRegardlessOfOtherKnobs) {
  double off_start = -1.0;
  std::string off_metrics;
  run_crafted(SimConfig{}, &off_start, &off_metrics);
  EXPECT_DOUBLE_EQ(off_start, 10000.0);  // waits for the long jobs

  // Non-default knobs with enabled=false must not change a single field
  // (wall-clock timings excluded, nothing else).
  SimConfig config;
  config.defrag.migration_cost = 7.0;
  config.defrag.max_moves = 1;
  config.defrag.max_probes = 5;
  double start = -1.0;
  std::string metrics;
  const SimMetrics m = run_crafted(config, &start, &metrics);
  EXPECT_EQ(m.migration_plans, 0u);
  EXPECT_EQ(m.migrations, 0u);
  EXPECT_DOUBLE_EQ(start, off_start);

  EXPECT_EQ(scrub_wall_fields(metrics), scrub_wall_fields(off_metrics));
}

TEST(DefragEngine, ExhaustedProbeBudgetFailsOpenAndOnlyOnce) {
  // With a zero probe budget the planner can never produce a plan; the
  // run must degrade to exactly the defrag-off schedule, and the
  // (head, revision) throttle must record one failed plan, not one per
  // pass.
  SimConfig config;
  config.defrag.enabled = true;
  config.defrag.max_probes = 0;
  double head_start = -1.0;
  const SimMetrics m = run_crafted(config, &head_start);
  EXPECT_EQ(m.migration_plans, 0u);
  EXPECT_EQ(m.migration_plans_failed, 1u);
  EXPECT_EQ(m.migrations, 0u);
  EXPECT_DOUBLE_EQ(head_start, 10000.0);
  EXPECT_EQ(m.completed, 8u);
}

TEST(DefragEngine, EnabledRunsAreBitDeterministic) {
  SimConfig config;
  config.defrag.enabled = true;
  config.defrag.migration_cost = 40.0;
  std::string first;
  std::string second;
  run_crafted(config, nullptr, &first);
  run_crafted(config, nullptr, &second);
  EXPECT_EQ(scrub_wall_fields(first), scrub_wall_fields(second))
      << "defrag-on run is not deterministic";
}

TEST(DefragEngine, EnabledOnSyntheticTraceStaysDeterministic) {
  // A real workload through the defrag-enabled engine, twice: %.17g
  // metrics must match bit for bit whether or not any migration fires.
  Trace trace = named_synthetic("Synth-16", 300);
  Rng rng(0xBADC0FFEEULL);
  assign_bandwidth_classes(trace, rng);
  const FatTree topo = FatTree::from_radix(16);
  const JigsawAllocator jigsaw;
  SimConfig config;
  config.defrag.enabled = true;
  config.defrag.migration_cost = 30.0;
  std::string runs[2];
  for (std::string& out : runs) {
    SimEngine engine(topo, jigsaw, config);
    for (const Job& j : trace.jobs) engine.submit(j);
    engine.run();
    out = scrub_wall_fields(service::metrics_json(engine.finish()));
  }
  EXPECT_EQ(runs[0], runs[1]);
}

// ---------------------------------------------------------------------------
// Snapshot blob v3: in-flight migrations survive serialize/deserialize.
// ---------------------------------------------------------------------------

SimConfig snapshot_config() {
  SimConfig config;
  config.defrag.enabled = true;
  config.defrag.migration_cost = 40.0;
  return config;
}

/// Steps the engine to one of the two defrag-specific snapshot points:
/// after the planning pass (pending plan awaiting its kMigrationStart)
/// or inside the migration window (in-flight, kMigrationDone queued).
void step_to_migration_point(SimEngine& engine, bool inside_window) {
  for (const Job& j : testing::defrag_stall_trace()) engine.submit(j);
  engine.step();  // t=0: everything starts
  engine.step();  // t=10: head arrives, blocked on capacity
  engine.step();  // t=100: leaf-mates complete; plan adopted
  ASSERT_DOUBLE_EQ(engine.now(), 100.0);
  ASSERT_EQ(engine.migrations_in_flight(), 0);
  if (inside_window) {
    engine.step();  // t=100: migration executes, head starts
    ASSERT_EQ(engine.migrations_in_flight(), 1);
  }
}

void round_trip_from(bool inside_window) {
  const FatTree topo(4, 4, 4);
  const JigsawAllocator jigsaw;
  const SimConfig config = snapshot_config();
  SimEngine engine(topo, jigsaw, config);
  step_to_migration_point(engine, inside_window);

  std::string blob;
  std::string error;
  ASSERT_TRUE(engine.serialize(&blob, &error)) << error;

  SimEngine restored(topo, jigsaw, config);
  ASSERT_TRUE(restored.deserialize(blob, &error)) << error;
  EXPECT_EQ(restored.migrations_in_flight(), engine.migrations_in_flight());
  std::string blob2;
  ASSERT_TRUE(restored.serialize(&blob2, &error)) << error;
  EXPECT_EQ(blob, blob2) << "re-serialization is not byte-deterministic";

  engine.run();
  restored.run();
  const SimMetrics& a = engine.finish();
  const SimMetrics& b = restored.finish();
  // The restored run must still execute (or finish) the migration and
  // unblock the head.
  EXPECT_EQ(a.migrations, 1u);
  EXPECT_EQ(b.migrations, 1u);
  EXPECT_EQ(b.head_unblocks, 1u);
  EXPECT_DOUBLE_EQ(b.makespan, a.makespan);
  EXPECT_DOUBLE_EQ(b.steady_utilization, a.steady_utilization);
  EXPECT_DOUBLE_EQ(b.migration_node_seconds, a.migration_node_seconds);
}

TEST(DefragSnapshot, PendingPlanSurvivesRoundTrip) {
  round_trip_from(/*inside_window=*/false);
}

TEST(DefragSnapshot, InFlightMigrationSurvivesRoundTrip) {
  round_trip_from(/*inside_window=*/true);
}

TEST(DefragSnapshot, RejectsBlobFromDifferentDefragConfig) {
  const FatTree topo(4, 4, 4);
  const JigsawAllocator jigsaw;
  SimEngine engine(topo, jigsaw, snapshot_config());
  step_to_migration_point(engine, /*inside_window=*/true);
  std::string blob;
  std::string error;
  ASSERT_TRUE(engine.serialize(&blob, &error)) << error;

  SimConfig other = snapshot_config();
  other.defrag.migration_cost = 99.0;
  SimEngine victim(topo, jigsaw, other);
  EXPECT_FALSE(victim.deserialize(blob, &error));
  EXPECT_NE(error.find("defrag"), std::string::npos) << error;
}

}  // namespace
}  // namespace jigsaw
