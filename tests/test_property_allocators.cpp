// Property tests over random allocate/release workloads: every allocator
// preserves cluster-state invariants, never double-books resources, and
// the condition-based schemes always emit §3.2-compliant partitions.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/baseline.hpp"
#include "core/conditions.hpp"
#include "core/jigsaw_allocator.hpp"
#include "core/laas.hpp"
#include "core/lc.hpp"
#include "core/ta.hpp"
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

bool condition_based(Scheme s) {
  return s == Scheme::kJigsaw || s == Scheme::kLaas || s == Scheme::kLc;
}

class AllocatorChurn
    : public ::testing::TestWithParam<std::tuple<Scheme, int>> {};

TEST_P(AllocatorChurn, RandomChurnPreservesInvariants) {
  const auto [scheme, seed] = GetParam();
  const AllocatorPtr allocator = make(scheme);
  const FatTree t = FatTree::from_radix(8);  // 256 nodes
  ClusterState state(t);
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);

  std::map<JobId, Allocation> live;
  int placed = 0;
  int failed = 0;
  for (JobId job = 0; job < 120; ++job) {
    // Random churn: 2/3 allocate, 1/3 release.
    if (!live.empty() && rng.below(3) == 0) {
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.below(live.size())));
      state.release(it->second);
      live.erase(it);
      continue;
    }
    const int size = 1 + static_cast<int>(rng.below(48));
    const double demand =
        scheme == Scheme::kLcs ? 0.5 + 0.5 * static_cast<double>(rng.below(4))
                               : 0.0;
    auto alloc = allocator->allocate(state, JobRequest{job, size, demand});
    if (!alloc.has_value()) {
      ++failed;
      // The allocator must never fail when the machine is empty and the
      // job fits (completeness at the trivial boundary).
      ASSERT_FALSE(live.empty() && size <= t.total_nodes())
          << "scheme failed on an empty machine, size " << size;
      continue;
    }
    ++placed;
    // Requested vs allocated.
    EXPECT_GE(alloc->allocated_nodes(), size);
    if (scheme != Scheme::kLaas) {
      EXPECT_EQ(alloc->allocated_nodes(), size);
    }
    if (condition_based(scheme)) {
      const auto report = check_full_bandwidth(t, *alloc);
      ASSERT_TRUE(report.ok) << "size " << size << ": " << report.error;
    }
    state.apply(*alloc);  // throws on any double-booking
    ASSERT_TRUE(state.check_invariants());
    live.emplace(job, std::move(*alloc));
  }
  EXPECT_GT(placed, 10);

  // Releasing everything restores a pristine machine.
  for (auto& [job, alloc] : live) {
    (void)job;
    state.release(alloc);
  }
  EXPECT_EQ(state.total_free_nodes(), t.total_nodes());
  EXPECT_TRUE(state.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSeeds, AllocatorChurn,
    ::testing::Combine(::testing::Values(Scheme::kBaseline, Scheme::kJigsaw,
                                         Scheme::kLaas, Scheme::kTa,
                                         Scheme::kLc, Scheme::kLcs),
                       ::testing::Range(0, 8)));

// Resource-monotonicity certificate: a request allocate() places in a
// state is still placed after any one running allocation is released.
// The scheduler's galloped shadow search and its backfill failure memo
// both rest on this: placeability only grows as resources return.
class ResourceMonotonicity
    : public ::testing::TestWithParam<std::tuple<Scheme, int>> {};

TEST_P(ResourceMonotonicity, ReleaseKeepsAPlaceableRequestPlaceable) {
  const auto [scheme, radix] = GetParam();
  const AllocatorPtr allocator = make(scheme);
  const FatTree t = FatTree::from_radix(radix);
  ClusterState state(t);
  Rng rng(static_cast<std::uint64_t>(radix) * 6151 +
          static_cast<std::uint64_t>(scheme));
  auto demand = [&] {
    return scheme == Scheme::kLcs
               ? 0.5 + 0.5 * static_cast<double>(rng.below(4))
               : 0.0;
  };
  std::map<JobId, Allocation> live;
  int checks = 0;
  for (JobId job = 0; job < 300; ++job) {
    if (!live.empty() && rng.below(3) == 0) {
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.below(live.size())));
      state.release(it->second);
      live.erase(it);
    } else {
      const int size = 1 + static_cast<int>(rng.below(
                               static_cast<std::uint64_t>(t.total_nodes() / 3)));
      if (auto a = allocator->allocate(state, JobRequest{job, size, demand()})) {
        state.apply(*a);
        live.emplace(job, std::move(*a));
      }
    }
    // Requests that fit now must fit after each single release.
    for (int p = 0; p < 4; ++p) {
      const JobRequest probe{
          -1,
          1 + static_cast<int>(rng.below(
                  static_cast<std::uint64_t>(state.total_free_nodes() + 1))),
          demand()};
      if (!allocator->allocate(state, probe).has_value()) continue;
      for (const auto& [id, running] : live) {
        ClusterState::Txn txn(state);
        state.release(running);
        ASSERT_TRUE(allocator->allocate(state, probe).has_value())
            << "placing " << probe.nodes
            << " nodes stopped working after job " << id << " released "
            << running.allocated_nodes() << " nodes";
        ++checks;
      }
    }
  }
  EXPECT_GT(checks, 2000);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndRadices, ResourceMonotonicity,
    ::testing::Combine(::testing::Values(Scheme::kBaseline, Scheme::kJigsaw,
                                         Scheme::kLaas, Scheme::kTa,
                                         Scheme::kLc, Scheme::kLcs),
                       ::testing::Values(4, 6, 8)));

class PackingCompleteness : public ::testing::TestWithParam<int> {};

TEST_P(PackingCompleteness, JigsawPacksUniformJobsPerfectly) {
  // Uniform jobs whose size divides the machine should pack to 100%.
  const int size = GetParam();
  const FatTree t(4, 4, 4);
  ClusterState state(t);
  const JigsawAllocator jigsaw;
  const int count = t.total_nodes() / size;
  for (JobId job = 0; job < count; ++job) {
    auto alloc = jigsaw.allocate(state, JobRequest{job, size, 0.0});
    ASSERT_TRUE(alloc.has_value())
        << "job " << job << " of size " << size << " failed; free="
        << state.total_free_nodes();
    state.apply(*alloc);
  }
  EXPECT_EQ(state.total_free_nodes(), 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PackingCompleteness,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64));

}  // namespace
}  // namespace jigsaw
