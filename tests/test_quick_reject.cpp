// Admission-time quick-reject screen (Allocator::quick_reject +
// SimConfig::admission_quick_reject): the screen must be *sound* — it
// only fires when allocate() would certainly fail — which makes enabling
// it decision-neutral: the same jobs start at the same times, only the
// number of placement searches changes.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/baseline.hpp"
#include "core/jigsaw_allocator.hpp"
#include "core/laas.hpp"
#include "core/lc.hpp"
#include "core/ta.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace jigsaw {
namespace {

enum class Scheme { kBaseline, kJigsaw, kLaas, kTa, kLc, kLcs };

AllocatorPtr make(Scheme scheme) {
  switch (scheme) {
    case Scheme::kBaseline: return std::make_unique<BaselineAllocator>();
    case Scheme::kJigsaw: return std::make_unique<JigsawAllocator>();
    case Scheme::kLaas: return std::make_unique<LaasAllocator>();
    case Scheme::kTa: return std::make_unique<TaAllocator>();
    case Scheme::kLc:
      return std::make_unique<LeastConstrainedAllocator>(false);
    case Scheme::kLcs:
      return std::make_unique<LeastConstrainedAllocator>(true);
  }
  return nullptr;
}

// Soundness property: over random churn states and random requests,
// quick_reject == true implies allocate() fails. (The converse is not
// required — the screen errs toward false.)
class QuickRejectSoundness
    : public ::testing::TestWithParam<std::tuple<Scheme, int>> {};

TEST_P(QuickRejectSoundness, RejectImpliesAllocateFails) {
  const auto [scheme, seed] = GetParam();
  const AllocatorPtr allocator = make(scheme);
  const FatTree t = FatTree::from_radix(8);  // 256 nodes
  ClusterState state(t);
  Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 7);

  std::map<JobId, Allocation> live;
  int screened = 0;
  int probes = 0;
  for (JobId job = 0; job < 300; ++job) {
    if (!live.empty() && rng.below(3) == 0) {
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.below(live.size())));
      state.release(it->second);
      live.erase(it);
      continue;
    }
    // Mostly large requests so the cluster saturates and the screen has
    // shortage states to fire on.
    const int size = 1 + static_cast<int>(rng.below(96));
    const double demand =
        scheme == Scheme::kLcs ? 0.5 + 0.5 * static_cast<double>(rng.below(4))
                               : 0.0;
    const JobRequest request{job, size, demand};
    ++probes;
    const bool rejected = allocator->quick_reject(state, request);
    auto alloc = allocator->allocate(state, request);
    if (rejected) {
      ++screened;
      ASSERT_FALSE(alloc.has_value())
          << "unsound quick_reject: size " << size << " with "
          << state.total_free_nodes() << " free nodes";
      continue;
    }
    if (!alloc.has_value()) continue;
    state.apply(*alloc);
    live.emplace(job, std::move(*alloc));
  }
  // The property ran on a meaningful sample, including fired screens.
  EXPECT_GE(probes, 100);
  EXPECT_GT(screened, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, QuickRejectSoundness,
    ::testing::Combine(::testing::Values(Scheme::kBaseline, Scheme::kJigsaw,
                                         Scheme::kLaas, Scheme::kTa,
                                         Scheme::kLc, Scheme::kLcs),
                       ::testing::Values(1, 2, 3)));

// Decision neutrality end to end: for every scheme, a full Synth-16 run
// with the screen on is %.17g bit-identical to the run with it off in
// every decision-derived metric, the screen demonstrably fired, and the
// accounting closes: every screened call is an allocate call saved.
TEST(QuickReject, DecisionNeutralOnSynth16AllSchemes) {
  Trace trace = named_synthetic("Synth-16", 600);
  Rng rng(0xBADC0FFEEULL);
  assign_bandwidth_classes(trace, rng);
  const FatTree topo = FatTree::from_radix(16);

  for (const Scheme scheme :
       {Scheme::kBaseline, Scheme::kJigsaw, Scheme::kLaas, Scheme::kTa,
        Scheme::kLc, Scheme::kLcs}) {
    const AllocatorPtr allocator = make(scheme);
    SCOPED_TRACE(allocator->name());

    SimConfig off;
    const SimMetrics m_off = simulate(topo, *allocator, trace, off);
    SimConfig on;
    on.admission_quick_reject = true;
    const SimMetrics m_on = simulate(topo, *allocator, trace, on);

    EXPECT_DOUBLE_EQ(m_on.steady_utilization, m_off.steady_utilization);
    EXPECT_DOUBLE_EQ(m_on.makespan, m_off.makespan);
    EXPECT_DOUBLE_EQ(m_on.mean_turnaround_all, m_off.mean_turnaround_all);
    EXPECT_DOUBLE_EQ(m_on.mean_wait, m_off.mean_wait);
    EXPECT_EQ(m_on.completed, m_off.completed);

    EXPECT_EQ(m_off.quick_rejects, 0u);
    // The backfill failure memo fires on this workload, and it skips the
    // same candidates whether their earlier failure was a search or a
    // quick-reject.
    EXPECT_GT(m_off.backfill_memo_skips, 0u);
    EXPECT_EQ(m_on.backfill_memo_skips, m_off.backfill_memo_skips);
    // TA is the exception: it blocks on uplink-isolation conditions while
    // free nodes stay plentiful (it runs the lowest utilization of the
    // five schemes), so the node-shortage screen legitimately never fires
    // for it on this workload.
    if (scheme != Scheme::kTa) {
      EXPECT_GT(m_on.quick_rejects, 0u);
    }
    // Exactly the screened searches disappear, none of the productive
    // ones: the try_alloc sequence is unchanged, each call either runs
    // or is screened.
    EXPECT_EQ(m_on.allocate_calls + m_on.quick_rejects,
              m_off.allocate_calls);
    EXPECT_LE(m_on.search_steps, m_off.search_steps);
  }
}

}  // namespace
}  // namespace jigsaw
