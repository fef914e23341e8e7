#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>

#include "core/baseline.hpp"
#include "core/jigsaw_allocator.hpp"
#include "core/laas.hpp"
#include "core/lc.hpp"
#include "core/ta.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"

namespace jigsaw {
namespace {

Trace tiny_trace() {
  Trace trace;
  trace.name = "tiny";
  trace.jobs = {
      Job{0, 0.0, 10, 100.0, 1.0},  Job{1, 0.0, 20, 50.0, 1.0},
      Job{2, 10.0, 64, 30.0, 1.0},  Job{3, 20.0, 4, 200.0, 1.0},
      Job{4, 30.0, 1, 10.0, 1.0},
  };
  normalize(trace);
  return trace;
}

TEST(EventQueue, OrdersByTimeCompletionsFirst) {
  EventQueue q;
  q.push(5.0, EventType::kArrival, 1);
  q.push(5.0, EventType::kCompletion, 2);
  q.push(1.0, EventType::kArrival, 3);
  EXPECT_EQ(q.pop().job, 3);
  EXPECT_EQ(q.pop().job, 2);  // completion before same-time arrival
  EXPECT_EQ(q.pop().job, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FifoTieBreakWithinType) {
  EventQueue q;
  q.push(1.0, EventType::kArrival, 7);
  q.push(1.0, EventType::kArrival, 8);
  EXPECT_EQ(q.pop().job, 7);
  EXPECT_EQ(q.pop().job, 8);
}

TEST(Speedup, ScenariosMatchPaper) {
  const SpeedupModel none(SpeedupScenario::kNone, 1);
  const SpeedupModel ten(SpeedupScenario::kFixed10, 1);
  const SpeedupModel random(SpeedupScenario::kRandom, 1);
  const Job small{1, 0, 4, 100.0, 1.0};
  const Job medium{2, 0, 32, 100.0, 1.0};
  const Job large{3, 0, 128, 100.0, 1.0};
  EXPECT_EQ(none.fraction(large), 0.0);
  EXPECT_EQ(ten.fraction(small), 0.0);   // <= 4 nodes never speeds up
  EXPECT_EQ(ten.fraction(medium), 0.10);
  EXPECT_NEAR(ten.isolated_runtime(medium), 100.0 / 1.10, 1e-12);
  EXPECT_EQ(random.fraction(medium), 0.0);  // <= 64 nodes in Random
  const double f = random.fraction(large);
  EXPECT_TRUE(f == 0.0 || f == 0.05 || f == 0.15 || f == 0.30);
  // Deterministic across instances with the same seed.
  const SpeedupModel random2(SpeedupScenario::kRandom, 1);
  EXPECT_EQ(random2.fraction(large), f);
}

TEST(Speedup, V2ScalesWithSize) {
  const SpeedupModel v2(SpeedupScenario::kV2, 3);
  for (JobId id = 0; id < 50; ++id) {
    const Job big{id, 0, 256, 100.0, 1.0};
    const Job half{id, 0, 128, 100.0, 1.0};
    const double fb = v2.fraction(big);
    EXPECT_GE(fb, 0.0);
    EXPECT_LE(fb, 0.30);
    EXPECT_NEAR(v2.fraction(half), fb / 2.0, 1e-12);
  }
}

TEST(UtilizationTimeline, IntegratesPiecewise) {
  UtilizationTimeline tl(100);
  tl.record(0.0, 50);
  tl.record(10.0, 50);   // 100 busy from t=10
  tl.record(20.0, -100); // idle from t=20
  EXPECT_DOUBLE_EQ(tl.utilization(0, 20), 0.75);
  EXPECT_DOUBLE_EQ(tl.utilization(0, 10), 0.5);
  EXPECT_DOUBLE_EQ(tl.utilization(10, 20), 1.0);
  EXPECT_DOUBLE_EQ(tl.utilization(5, 15), 0.75);
  EXPECT_DOUBLE_EQ(tl.utilization(20, 30), 0.0);
}

TEST(Simulator, CompletesAllJobs) {
  const FatTree t(4, 4, 4);
  const BaselineAllocator baseline;
  const SimMetrics m = simulate(t, baseline, tiny_trace(), SimConfig{});
  EXPECT_EQ(m.completed, 5u);
  EXPECT_GT(m.makespan, 0.0);
  EXPECT_GT(m.mean_turnaround_all, 0.0);
}

TEST(Simulator, MakespanLowerBound) {
  // One job: makespan equals its runtime.
  const FatTree t(4, 4, 4);
  Trace trace;
  trace.jobs = {Job{0, 0.0, 8, 123.0, 1.0}};
  normalize(trace);
  const BaselineAllocator baseline;
  const SimMetrics m = simulate(t, baseline, trace, SimConfig{});
  EXPECT_DOUBLE_EQ(m.makespan, 123.0);
  EXPECT_DOUBLE_EQ(m.mean_turnaround_all, 123.0);
}

TEST(Simulator, SpeedupsShortenIsolatedRuns) {
  const FatTree t(4, 4, 4);
  Trace trace;
  trace.jobs = {Job{0, 0.0, 8, 110.0, 1.0}};
  normalize(trace);
  SimConfig config;
  config.scenario = SpeedupScenario::kFixed10;
  const JigsawAllocator jigsaw;
  const BaselineAllocator baseline;
  const SimMetrics iso = simulate(t, jigsaw, trace, config);
  const SimMetrics base = simulate(t, baseline, trace, config);
  EXPECT_DOUBLE_EQ(iso.makespan, 100.0);   // 110 / 1.1
  EXPECT_DOUBLE_EQ(base.makespan, 110.0);  // baseline never speeds up
}

TEST(Simulator, BackfillingReducesTurnaroundVsNoBackfill) {
  const FatTree t(4, 4, 4);
  Trace trace;
  // A near-machine-filling job followed by a blocked giant head; short
  // small jobs can only run early via backfilling into the 4 spare nodes.
  trace.jobs.push_back(Job{0, 0.0, 60, 100.0, 1.0});
  trace.jobs.push_back(Job{1, 1.0, 64, 100.0, 1.0});
  for (int k = 0; k < 10; ++k) {
    trace.jobs.push_back(Job{2 + k, 2.0, 2, 5.0, 1.0});
  }
  normalize(trace);
  const BaselineAllocator baseline;
  SimConfig with;
  with.backfill_window = 50;
  SimConfig without;
  without.backfill_window = 0;
  const SimMetrics a = simulate(t, baseline, trace, with);
  const SimMetrics b = simulate(t, baseline, trace, without);
  EXPECT_LT(a.mean_turnaround_all, b.mean_turnaround_all);
  EXPECT_EQ(a.completed, b.completed);
}

TEST(Simulator, UtilizationWithinBounds) {
  const FatTree t(4, 4, 4);
  const JigsawAllocator jigsaw;
  Trace trace;
  Rng rng(5);
  for (int k = 0; k < 60; ++k) {
    trace.jobs.push_back(Job{k, 0.0, 1 + static_cast<int>(rng.below(16)),
                             rng.uniform(10.0, 100.0), 1.0});
  }
  normalize(trace);
  const SimMetrics m = simulate(t, jigsaw, trace, SimConfig{});
  EXPECT_GT(m.steady_utilization, 0.5);
  EXPECT_LE(m.steady_utilization, 1.0 + 1e-9);
  EXPECT_EQ(m.completed, 60u);
}

TEST(Simulator, LaasWasteIsTracked) {
  const FatTree t(4, 4, 4);
  const LaasAllocator laas;
  Trace trace;
  // 17-node jobs span subtrees and round up to 5 whole leaves (20 nodes):
  // 3 of every 20 allocated nodes are waste.
  for (int k = 0; k < 9; ++k) {
    trace.jobs.push_back(Job{k, 0.0, 17, 100.0, 1.0});
  }
  normalize(trace);
  SimConfig config;
  const SimMetrics m = simulate(t, laas, trace, config);
  EXPECT_GT(m.steady_waste, 0.10);
  EXPECT_EQ(m.completed, 9u);
}

TEST(Simulator, InstantSamplesCollectedInSteadyWindow) {
  const FatTree t(4, 4, 4);
  const BaselineAllocator baseline;
  Trace trace;
  for (int k = 0; k < 30; ++k) {
    trace.jobs.push_back(Job{k, 0.0, 16, 50.0, 1.0});
  }
  normalize(trace);
  SimConfig config;
  config.collect_instant_samples = true;
  const SimMetrics m = simulate(t, baseline, trace, config);
  EXPECT_FALSE(m.instant_utilization.empty());
  for (const double u : m.instant_utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 100.0);
  }
}

TEST(Simulator, MaxJobsTruncates) {
  const FatTree t(4, 4, 4);
  const BaselineAllocator baseline;
  SimConfig config;
  config.max_jobs = 3;
  const SimMetrics m = simulate(t, baseline, tiny_trace(), config);
  EXPECT_EQ(m.completed, 3u);
}

TEST(Simulator, MeasuredInterferenceStretchesBaselineOnly) {
  const FatTree t(4, 4, 4);
  Trace trace;
  // Two 32-node jobs sharing the machine: Baseline places them interleaved
  // enough that D-mod-k link sharing occurs, so with a communication
  // fraction their runtimes stretch; Jigsaw runs penalty-free.
  trace.jobs = {Job{0, 0.0, 32, 100.0, 1.0}, Job{1, 0.0, 32, 100.0, 1.0}};
  normalize(trace);
  const BaselineAllocator baseline;
  const JigsawAllocator jigsaw;
  SimConfig measured;
  measured.measured_interference_comm_fraction = 0.5;
  const double base_plain =
      simulate(t, baseline, trace, SimConfig{}).makespan;
  const double base_measured =
      simulate(t, baseline, trace, measured).makespan;
  const double jig_measured = simulate(t, jigsaw, trace, measured).makespan;
  EXPECT_GE(base_measured, base_plain);  // penalties only add time
  EXPECT_DOUBLE_EQ(jig_measured, 100.0); // isolating scheme unaffected
}

TEST(Simulator, MeasuredInterferenceZeroFractionIsNoOp) {
  const FatTree t(4, 4, 4);
  const BaselineAllocator baseline;
  const Trace trace = tiny_trace();
  SimConfig zero;
  zero.measured_interference_comm_fraction = 0.0;
  const SimMetrics a = simulate(t, baseline, trace, SimConfig{});
  const SimMetrics b = simulate(t, baseline, trace, zero);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.mean_turnaround_all, b.mean_turnaround_all);
}

TEST(Simulator, JobRecordsAndPercentiles) {
  const FatTree t(4, 4, 4);
  const BaselineAllocator baseline;
  SimConfig config;
  config.collect_job_records = true;
  const SimMetrics m = simulate(t, baseline, tiny_trace(), config);
  ASSERT_EQ(m.job_records.size(), 5u);
  for (const JobRecord& r : m.job_records) {
    EXPECT_GE(r.start, r.arrival);
    EXPECT_GT(r.end, r.start);
    EXPECT_DOUBLE_EQ(r.turnaround(), r.wait() + r.runtime());
  }
  EXPECT_GT(m.p50_turnaround, 0.0);
  EXPECT_LE(m.p50_turnaround, m.p90_turnaround);
  EXPECT_LE(m.p90_turnaround, m.p99_turnaround);

  std::ostringstream csv;
  write_job_records_csv(csv, m.job_records);
  const std::string text = csv.str();
  EXPECT_NE(text.find("job,nodes,arrival"), std::string::npos);
  // Header + 5 data lines.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 6);
}

TEST(Simulator, OversizeJobThrows) {
  const FatTree t(4, 4, 4);
  const BaselineAllocator baseline;
  Trace trace;
  trace.jobs = {Job{0, 0.0, 65, 10.0, 1.0}};
  normalize(trace);
  EXPECT_THROW(simulate(t, baseline, trace, SimConfig{}),
               std::invalid_argument);
}

// No placement decision reads the wall clock: whatever
// SimConfig::alloc_deadline_us holds, every scheme makes the same
// decisions, down to the bits of its metrics and its search counts.
TEST(Simulator, AllocDeadlineChangesNoDecision) {
  Trace trace = named_synthetic("Synth-16", 300);
  Rng rng(0xBADC0FFEEULL);
  assign_bandwidth_classes(trace, rng);
  const FatTree topo = FatTree::from_radix(16);
  const BaselineAllocator baseline;
  const JigsawAllocator jigsaw;
  const LaasAllocator laas;
  const TaAllocator ta;
  const LeastConstrainedAllocator lc(false);
  const LeastConstrainedAllocator lcs(true);
  for (const Allocator* alloc : std::initializer_list<const Allocator*>{
           &baseline, &jigsaw, &laas, &ta, &lc, &lcs}) {
    const SimMetrics want = simulate(topo, *alloc, trace, SimConfig{});
    for (const std::int64_t us : {std::int64_t{1}, std::int64_t{100000}}) {
      SCOPED_TRACE(alloc->name() + " at " + std::to_string(us) + " us");
      SimConfig config;
      config.alloc_deadline_us = us;
      const SimMetrics got = simulate(topo, *alloc, trace, config);
      EXPECT_EQ(got.steady_utilization, want.steady_utilization);
      EXPECT_EQ(got.makespan, want.makespan);
      EXPECT_EQ(got.allocate_calls, want.allocate_calls);
      EXPECT_EQ(got.search_steps, want.search_steps);
    }
  }
}

}  // namespace
}  // namespace jigsaw
