// Anytime deadline-bounded placement search (core/candidate_scan.hpp):
// determinism guards and soundness guards.
//
// The contract under test has three legs. (1) An inactive or abort-only
// AllocBudget must be bit-identical to the historical exhaustive scan —
// same placement, same step ledger. (2) A real
// deadline may trade placement quality and hit rate but never soundness:
// anything allocate() returns under any deadline must still pass
// ClusterState::can_apply and, for the isolating schemes, the full §3.2
// condition checks. (3) The shape tables serve exactly the
// quality-descending permutations the runtime ranker computes, a corrupt
// permutation is rejected at load, never served, and so is a table in
// the retired version-1 format that carries no permutations.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "core/candidate_scan.hpp"
#include "core/conditions.hpp"
#include "core/jigsaw_allocator.hpp"
#include "core/laas.hpp"
#include "core/lc.hpp"
#include "core/shape_table.hpp"
#include "core/shapes.hpp"
#include "core/ta.hpp"
#include "obs/metrics_registry.hpp"
#include "service/wal.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace jigsaw {
namespace {

std::string temp_path(const char* tag) {
  return testing::TempDir() + "/anytime_" + tag + "_" +
         std::to_string(::getpid()) + ".jst";
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.write(bytes.data(),
                        static_cast<std::streamsize>(bytes.size())));
}

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

// ---- leg 1: abort-only budgets are bit-identical ------------------------

// An AllocBudget carrying only a (never-fired) abort flag is "active", so
// it exercises the whole anytime plumbing — AnytimeClock construction,
// scan_first_feasible's expiry gates, the per-probe clock threading — but
// ranked() is false, so the candidate order stays canonical and the
// step ledger is unchanged. Placement and step count must match the
// no-budget call exactly.
TEST(Anytime, AbortOnlyBudgetMatchesExhaustive) {
  const FatTree topo = FatTree::from_radix(16);

  const JigsawAllocator jigsaw;
  const LaasAllocator laas;
  const LeastConstrainedAllocator lcs(true);
  const TaAllocator ta;
  const Allocator* schemes[] = {&jigsaw, &laas, &lcs, &ta};

  std::atomic<bool> never{false};
  const AllocBudget abort_only{0, &never};

  for (const Allocator* base : schemes) {
    ClusterState state(topo);
    Rng rng(0xA11C0DE + base->name().size());
    JobId next = fragment(*base, state, rng);
    for (int trial = 0; trial < 24; ++trial) {
      const JobRequest req{next + trial, 1 + static_cast<int>(rng.below(20)),
                           1.0};
      SCOPED_TRACE(base->name() + " trial " + std::to_string(trial));
      SearchStats want_stats;
      const auto want = base->allocate(state, req, &want_stats);
      SearchStats got_stats;
      const auto got = base->allocate(state, req, abort_only, &got_stats);
      ASSERT_EQ(got.has_value(), want.has_value());
      if (want.has_value()) {
        EXPECT_EQ(got->nodes, want->nodes);
        EXPECT_EQ(got->leaf_wires, want->leaf_wires);
        EXPECT_EQ(got->l2_wires, want->l2_wires);
      }
      EXPECT_EQ(got_stats.steps, want_stats.steps);
      EXPECT_EQ(got_stats.budget_exhausted, want_stats.budget_exhausted);
      EXPECT_FALSE(got_stats.deadline_expired);
      // Grow the fragmentation as the trial sequence proceeds.
      if (want.has_value() && trial % 2 == 0) state.apply(*want);
    }
  }
}

// ---- leg 2: deadlines trade quality, never soundness --------------------

// Even a 1 ns deadline (expired before the first expiry check) must
// return either nothing or a placement that passes the scheme's full
// isolation conditions — the position-0 liveness exemption guarantees the
// top-ranked candidate always gets a complete verdict.
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
            AllocBudget{deadline_ns, nullptr}, &stats);
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

// ---- leg 3: the quality-descending probe orders -------------------------

template <typename Shape, typename Cost>
void expect_ranked(const std::vector<Shape>& shapes,
                   const std::vector<std::uint32_t>& order, Cost cost,
                   const char* what, int n) {
  ASSERT_EQ(order.size(), shapes.size()) << what << " n=" << n;
  std::vector<bool> seen(shapes.size(), false);
  for (std::size_t p = 0; p < order.size(); ++p) {
    ASSERT_LT(order[p], shapes.size()) << what << " n=" << n;
    EXPECT_FALSE(seen[order[p]]) << what << " duplicate, n=" << n;
    seen[order[p]] = true;
    if (p > 0) {
      EXPECT_LE(cost(shapes[order[p - 1]]), cost(shapes[order[p]]))
          << what << " not quality-descending at p=" << p << " n=" << n;
    }
  }
}

TEST(Anytime, RankedOrdersAreQualityDescendingPermutations) {
  const FatTree topo = FatTree::from_radix(16);
  for (int n = 1; n <= topo.total_nodes(); ++n) {
    const auto s2 = two_level_shapes(n, topo);
    expect_ranked(s2, ranked_two_level_order(s2), two_level_shape_cost,
                  "two-level", n);
    const auto s3 = three_level_shapes(n, topo, true);
    expect_ranked(s3, ranked_three_level_order(s3), three_level_shape_cost,
                  "three-level restricted", n);
  }
  // The general family (LC's last resort) is ranked at runtime only; spot
  // check a few sizes — it is much larger per size.
  for (const int n : {10, 33, 100}) {
    const auto g = three_level_shapes(n, topo, false);
    expect_ranked(g, ranked_three_level_order(g), three_level_shape_cost,
                  "three-level general", n);
  }
}

TEST(Anytime, RankedTableRoundTripServesRankedOrders) {
  const FatTree topo = FatTree::from_radix(8);
  const std::string path = temp_path("ranked");
  const std::string bytes = ShapeTable::serialize(topo);
  write_file(path, bytes);

  std::string error;
  const auto table = ShapeTable::load(path, &error);
  ASSERT_NE(table, nullptr) << error;
  for (int n = 1; n <= topo.total_nodes(); ++n) {
    const auto want2 = ranked_two_level_order(two_level_shapes(n, topo));
    const auto got2 = table->two_level_ranked(n);
    ASSERT_EQ(got2.size(), want2.size()) << "n=" << n;
    EXPECT_TRUE(std::equal(got2.begin(), got2.end(), want2.begin()))
        << "two-level ranked n=" << n;
    const auto want3 =
        ranked_three_level_order(three_level_shapes(n, topo, true));
    const auto got3 = table->three_level_ranked(n);
    ASSERT_EQ(got3.size(), want3.size()) << "n=" << n;
    EXPECT_TRUE(std::equal(got3.begin(), got3.end(), want3.begin()))
        << "three-level ranked n=" << n;
  }

  // Serving: runtime fallback without a table, zero-copy with one.
  clear_shape_tables();
  reset_shape_serve_counters();
  const auto runtime_seq = two_level_ranked_seq(10, topo);
  EXPECT_FALSE(runtime_seq.table_backed());
  EXPECT_EQ(shape_serve_counters().ranked_runtime, 1u);
  install_shape_table(table);
  const auto table_seq = two_level_ranked_seq(10, topo);
  EXPECT_TRUE(table_seq.table_backed());
  EXPECT_EQ(shape_serve_counters().ranked_table, 1u);
  ASSERT_EQ(table_seq.size(), runtime_seq.size());
  EXPECT_TRUE(std::equal(table_seq.begin(), table_seq.end(),
                         runtime_seq.begin()));

  // A v1 header (version field at offset 8) is refused: the retired
  // format carried no ranked permutations.
  clear_shape_tables();
  std::string v1_bytes = bytes;
  v1_bytes[8] = 1;
  const std::string v1_path = temp_path("v1");
  write_file(v1_path, v1_bytes);
  EXPECT_EQ(ShapeTable::load(v1_path, &error), nullptr);
  EXPECT_NE(error.find("version 1"), std::string::npos) << error;

  clear_shape_tables();
  std::remove(path.c_str());
  std::remove(v1_path.c_str());
}

TEST(Anytime, RankedTableCorruptPermutationRejected) {
  const FatTree topo = FatTree::from_radix(8);
  std::string bytes = ShapeTable::serialize(topo);

  // Locate the first rank2 entry: header (40 B), both index arrays, then
  // the two shape pools; clobber it to an out-of-range value and re-seal
  // the CRC so only the permutation check can reject the file.
  std::size_t c2 = 0, c3 = 0;
  for (int n = 1; n <= topo.total_nodes(); ++n) {
    c2 += two_level_shapes(n, topo).size();
    c3 += three_level_shapes(n, topo, true).size();
  }
  const std::size_t header = 40;
  const std::size_t rank2_off =
      header +
      2 * (static_cast<std::size_t>(topo.total_nodes()) + 1) * sizeof(std::uint64_t) +
      12 * c2 + 20 * c3;
  ASSERT_LE(rank2_off + 4, bytes.size());
  const std::uint32_t bogus = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + rank2_off, &bogus, sizeof(bogus));
  const std::uint32_t crc =
      service::crc32(bytes.data() + header, bytes.size() - header);
  std::memcpy(bytes.data() + 28, &crc, sizeof(crc));

  const std::string path = temp_path("badrank");
  write_file(path, bytes);
  std::string error;
  EXPECT_EQ(ShapeTable::load(path, &error), nullptr);
  EXPECT_NE(error.find("ranked permutation invalid"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace jigsaw
