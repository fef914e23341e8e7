// The scheduling pass skips searches whose answer it already holds:
// the shadow search gallops from a node-count bound instead of
// releasing every running job first, and backfill skips a request whose
// (nodes, bandwidth) already failed earlier in the pass. Both must leave
// every decision as the plain searches would make it:
//  * the galloped prefix is the linear-scan minimal prefix, on random
//    monotone predicates and on the real ladder over churned states;
//  * a memo skip implies allocate() fails at that point of the pass;
//  * a failure the step budget cut short is never remembered.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <set>
#include <vector>

#include "core/baseline.hpp"
#include "core/jigsaw_allocator.hpp"
#include "core/laas.hpp"
#include "core/lc.hpp"
#include "core/ta.hpp"
#include "sim/scheduler.hpp"
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

double random_demand(Scheme scheme, Rng& rng) {
  return scheme == Scheme::kLcs
             ? 0.5 + 0.5 * static_cast<double>(rng.below(4))
             : 0.0;
}

bool same_resources(const Allocation& a, const Allocation& b) {
  return a.nodes == b.nodes && a.leaf_wires == b.leaf_wires &&
         a.l2_wires == b.l2_wires;
}

TEST(GallopFirstFit, MatchesLinearScanOnMonotonePredicates) {
  Rng rng(0x6A110Bull);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t lo = rng.below(8);
    const std::size_t hi = lo + rng.below(300);
    // Boundary anywhere from below lo to past hi (no position fits).
    const std::size_t boundary = rng.below(hi + 3);
    std::vector<std::size_t> probes;
    std::size_t last_fit = hi + 1;
    const std::size_t k =
        gallop_first_fit(lo, hi, [&](std::size_t pos) {
          probes.push_back(pos);
          const bool fits = pos >= boundary;
          if (fits) last_fit = pos;
          return fits;
        });
    std::size_t linear = lo;
    while (linear <= hi && linear < boundary) ++linear;
    ASSERT_EQ(k, linear) << "lo " << lo << " hi " << hi << " boundary "
                         << boundary;
    for (const std::size_t pos : probes) {
      ASSERT_GE(pos, lo);
      ASSERT_LE(pos, hi);
    }
    // The last successful probe sits at the answer, so a caller keeping
    // the latest success holds the answer's payload without a re-probe.
    EXPECT_EQ(last_fit, k);
    // O(log distance) probes: at most two per doubling plus the ends.
    const double distance = static_cast<double>(k - lo) + 2.0;
    EXPECT_LE(static_cast<double>(probes.size()),
              2.0 * std::log2(distance) + 3.0);
  }
}

// The real ladder: for every scheme on churned radix-8 machines, the
// shadow reservation a pass records equals a linear replay that
// releases running jobs one at a time in end order.
class ShadowLadder : public ::testing::TestWithParam<Scheme> {};

TEST_P(ShadowLadder, MatchesLinearReplayOnChurnedStates) {
  const Scheme scheme = GetParam();
  const AllocatorPtr allocator = make(scheme);
  const FatTree t = FatTree::from_radix(8);
  Rng rng(0x5AD0ull + static_cast<std::uint64_t>(scheme));
  int reserved = 0;
  int unreserved = 0;
  for (int trial = 0; trial < 40; ++trial) {
    ClusterState state(t);
    std::vector<RunningJob> running;
    const int jobs = 4 + static_cast<int>(rng.below(40));
    for (JobId job = 0; job < jobs; ++job) {
      const int size = 1 + static_cast<int>(rng.below(24));
      auto a = allocator->allocate(
          state, JobRequest{job, size, random_demand(scheme, rng)});
      if (!a.has_value()) continue;
      state.apply(*a);
      // Distinct end times, so the shadow time names one prefix.
      const double end =
          10.0 + static_cast<double>(running.size()) + rng.uniform(0, 0.5);
      running.push_back(RunningJob{job, end, std::move(*a)});
    }
    std::shuffle(running.begin(), running.end(), rng);
    const PendingJob head{1000, 1 + static_cast<int>(rng.below(
                                        static_cast<std::uint64_t>(
                                            t.total_nodes()))),
                          random_demand(scheme, rng), 50.0};
    const JobRequest request{head.id, head.nodes, head.bandwidth};
    if (allocator->allocate(state, request).has_value()) continue;

    // Linear replay on a copy: release in end order, probe each prefix.
    std::vector<const RunningJob*> order;
    for (const RunningJob& r : running) order.push_back(&r);
    std::sort(order.begin(), order.end(),
              [](const RunningJob* a, const RunningJob* b) {
                return a->end_time < b->end_time;
              });
    ClusterState replay = state;
    std::optional<Allocation> want;
    double want_time = 0.0;
    for (const RunningJob* r : order) {
      replay.release(r->allocation);
      want = allocator->allocate(replay, request);
      if (want.has_value()) {
        want_time = r->end_time;
        break;
      }
    }

    const EasyScheduler sched(*allocator, /*backfill_window=*/0);
    EasyScheduler::Cache cache;
    const auto decisions =
        sched.schedule(0.0, state, std::deque<PendingJob>{head}, running,
                       nullptr, &cache);
    ASSERT_TRUE(decisions.empty());
    ASSERT_EQ(cache.shadow.has_value(), want.has_value())
        << "trial " << trial << " head " << head.nodes;
    if (!want.has_value()) {
      ++unreserved;
      continue;
    }
    ++reserved;
    EXPECT_EQ(cache.shadow_time, want_time) << "trial " << trial;
    EXPECT_TRUE(same_resources(*cache.shadow, *want)) << "trial " << trial;
  }
  EXPECT_GT(reserved, 5);
  EXPECT_GT(unreserved + reserved, 10);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ShadowLadder,
                         ::testing::Values(Scheme::kBaseline, Scheme::kJigsaw,
                                           Scheme::kLaas, Scheme::kTa,
                                           Scheme::kLc, Scheme::kLcs));

/// Forwards to a real allocator and records the job id of every
/// allocate() call, so a test can tell which candidates a pass skipped.
class RecordingAllocator final : public Allocator {
 public:
  explicit RecordingAllocator(const Allocator& inner) : inner_(&inner) {}
  std::string name() const override { return inner_->name(); }
  bool isolating() const override { return inner_->isolating(); }
  using Allocator::allocate;
  std::optional<Allocation> allocate(const ClusterState& state,
                                     const JobRequest& request,
                                     const AllocBudget& budget,
                                     SearchStats* stats) const override {
    called.insert(request.id);
    return inner_->allocate(state, request, budget, stats);
  }
  mutable std::set<JobId> called;

 private:
  const Allocator* inner_;
};

// Soundness of the backfill failure memo, for every scheme: each
// candidate the pass skipped without a search would have failed had it
// been searched, in the state the pass held at that moment (the head
// starts plus the backfills accepted before it).
class BackfillMemo : public ::testing::TestWithParam<Scheme> {};

TEST_P(BackfillMemo, SkipImpliesAllocateFails) {
  const Scheme scheme = GetParam();
  const AllocatorPtr inner = make(scheme);
  const RecordingAllocator allocator(*inner);
  const FatTree t = FatTree::from_radix(8);
  Rng rng(0x3E30ull + static_cast<std::uint64_t>(scheme));
  const EasyScheduler sched(allocator, /*backfill_window=*/40);
  std::uint64_t skips = 0;
  for (int trial = 0; trial < 40; ++trial) {
    ClusterState state(t);
    std::vector<RunningJob> running;
    for (JobId job = 0; job < 30; ++job) {
      const int size = 1 + static_cast<int>(rng.below(16));
      auto a = inner->allocate(
          state, JobRequest{job, size, random_demand(scheme, rng)});
      if (!a.has_value()) continue;
      state.apply(*a);
      running.push_back(
          RunningJob{job, 100.0 + rng.uniform(0, 100), std::move(*a)});
    }
    // A queue with many repeated (nodes, bandwidth) keys, so the memo
    // has repeats to fire on; mixed runtimes, so some candidates pass
    // the reservation check and take resources mid-loop.
    std::deque<PendingJob> queue;
    for (JobId job = 100; job < 140; ++job) {
      const int size = 1 << rng.below(6);
      queue.push_back(PendingJob{job, size, random_demand(scheme, rng),
                                 rng.chance(0.5) ? 5.0 : 500.0});
    }
    allocator.called.clear();
    EasyScheduler::PassStats stats;
    const auto decisions = sched.schedule(0.0, state, queue, running, &stats);

    std::size_t head = 0;
    while (head < decisions.size() && decisions[head].pending_index == head) {
      ++head;
    }
    // No reservation means no backfill loop; the first candidate is
    // always searched when the loop runs.
    if (head + 1 >= queue.size() ||
        allocator.called.count(queue[head + 1].id) == 0) {
      EXPECT_EQ(stats.backfill_memo_skips, 0u);
      continue;
    }
    std::uint64_t trial_skips = 0;
    for (std::size_t k = head + 1; k < queue.size(); ++k) {
      if (allocator.called.count(queue[k].id) != 0) continue;
      ++trial_skips;
      // Rebuild the state the pass held when it reached candidate k.
      ClusterState at_skip = state;
      for (const auto& d : decisions) {
        if (d.pending_index < k) at_skip.apply(d.allocation);
      }
      EXPECT_FALSE(inner
                       ->allocate(at_skip, JobRequest{queue[k].id,
                                                      queue[k].nodes,
                                                      queue[k].bandwidth})
                       .has_value())
          << "trial " << trial << ": skipped candidate " << k << " ("
          << queue[k].nodes << " nodes) would have been placed";
    }
    EXPECT_EQ(trial_skips, stats.backfill_memo_skips);
    skips += trial_skips;
  }
  EXPECT_GT(skips, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, BackfillMemo,
                         ::testing::Values(Scheme::kBaseline, Scheme::kJigsaw,
                                           Scheme::kLaas, Scheme::kTa,
                                           Scheme::kLcs));

/// Baseline placement, except that the one job `flaky` fails as a
/// search the step budget cut short would.
class InconclusiveOnce final : public Allocator {
 public:
  explicit InconclusiveOnce(JobId flaky) : flaky_(flaky) {}
  std::string name() const override { return "inconclusive-once"; }
  bool isolating() const override { return false; }
  using Allocator::allocate;
  std::optional<Allocation> allocate(const ClusterState& state,
                                     const JobRequest& request,
                                     const AllocBudget& budget,
                                     SearchStats* stats) const override {
    if (request.id == flaky_) {
      if (stats != nullptr) stats->budget_exhausted = true;
      return std::nullopt;
    }
    return baseline_.allocate(state, request, budget, stats);
  }

 private:
  BaselineAllocator baseline_;
  JobId flaky_;
};

TEST(BackfillMemoRule, CutShortFailuresAreNotRemembered) {
  const FatTree t(4, 4, 4);  // 64 nodes
  const InconclusiveOnce allocator(/*flaky=*/2);
  ClusterState state(t);
  std::vector<RunningJob> running;
  const BaselineAllocator baseline;
  auto busy = baseline.allocate(state, JobRequest{0, 56, 0.0});
  ASSERT_TRUE(busy.has_value());
  state.apply(*busy);
  running.push_back(RunningJob{0, 100.0, *busy});
  // Head 1 waits for job 0; jobs 2 and 3 share a key. Job 2's search
  // is cut short, which proves nothing about job 3.
  const std::deque<PendingJob> queue{PendingJob{1, 60, 0.0, 10.0},
                                     PendingJob{2, 4, 0.0, 10.0},
                                     PendingJob{3, 4, 0.0, 10.0}};
  const EasyScheduler sched(allocator, 10);
  EasyScheduler::PassStats stats;
  const auto decisions = sched.schedule(0.0, state, queue, running, &stats);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].pending_index, 2u);
  EXPECT_EQ(stats.backfill_memo_skips, 0u);
}

TEST(BackfillMemoRule, DefinitiveFailureSkipsTheSameKeyOnly) {
  const FatTree t(4, 4, 4);
  const LeastConstrainedAllocator lcs(true);
  ClusterState state(t);
  std::vector<RunningJob> running;
  auto busy = lcs.allocate(state, JobRequest{0, 56, 0.0});
  ASSERT_TRUE(busy.has_value());
  state.apply(*busy);
  running.push_back(RunningJob{0, 100.0, *busy});
  // Jobs 2 and 3 ask for more than the 8 free nodes: job 3 repeats job
  // 2's key and is skipped. Job 4 repeats the node count at another
  // bandwidth, so it is searched (and fails too); job 5 fits.
  const std::deque<PendingJob> queue{
      PendingJob{1, 60, 0.0, 10.0}, PendingJob{2, 12, 1.0, 10.0},
      PendingJob{3, 12, 1.0, 10.0}, PendingJob{4, 12, 0.5, 10.0},
      PendingJob{5, 4, 0.5, 10.0}};
  const EasyScheduler sched(lcs, 10);
  EasyScheduler::PassStats stats;
  const auto decisions = sched.schedule(0.0, state, queue, running, &stats);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].pending_index, 4u);
  EXPECT_EQ(stats.backfill_memo_skips, 1u);
}

}  // namespace
}  // namespace jigsaw
