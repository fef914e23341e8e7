// The first-feasible candidate scan (core/candidate_scan.hpp) against an
// independent model of its step-budget ledger.
//
// Every allocator's committed placement, consumed budget and exhaustion
// flag come from scan_first_feasible(), so the engine is pinned here on
// synthetic probes: which position wins, whether the scan reports the
// budget exhausted, how much budget is left and how many probes it
// charged. The whole-simulation goldens live in test_txn_equivalence.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/candidate_scan.hpp"
#include "util/rng.hpp"

namespace jigsaw {
namespace {

/// What scan_first_feasible must report, derived from prefix sums of the
/// probe costs rather than by replaying the loop. With S_i the steps of
/// probes 0..i and B the starting budget, the scan stops at the first i
/// where S_i > B (probe i truncated: exhausted, nothing left), or probe i
/// is feasible (winner, B - S_i left), or S_i == B (the infeasible probe
/// drained the budget: exhausted). Otherwise every probe ran and lost.
struct LedgerModel {
  std::ptrdiff_t winner = -1;
  bool exhausted = false;
  std::uint64_t left = 0;
  std::uint64_t probes = 0;
};

LedgerModel model(const std::vector<std::uint64_t>& costs,
                  const std::vector<unsigned char>& feasible,
                  std::uint64_t budget) {
  std::vector<std::uint64_t> prefix(costs.size());
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < costs.size(); ++i) prefix[i] = sum += costs[i];

  LedgerModel m;
  for (std::size_t i = 0; i < costs.size(); ++i) {
    m.probes = i + 1;
    if (prefix[i] > budget) {
      m.exhausted = true;
      return m;
    }
    if (feasible[i] != 0) {
      m.winner = static_cast<std::ptrdiff_t>(i);
      m.left = budget - prefix[i];
      return m;
    }
    if (prefix[i] == budget) {
      m.exhausted = true;
      return m;
    }
  }
  m.left = budget - (costs.empty() ? 0 : prefix.back());
  return m;
}

TEST(CandidateScan, MatchesPrefixSumLedgerModelOnRandomProbes) {
  Rng rng(123);
  int winners = 0;
  int exhaustions = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t count = rng.below(40);
    std::vector<std::uint64_t> costs(count);
    std::vector<unsigned char> feas(count);
    for (std::size_t i = 0; i < count; ++i) {
      costs[i] = rng.below(6);
      feas[i] = rng.below(5) == 0 ? 1 : 0;
    }
    // A find_* probe run under budget b executes a prefix of its full
    // step sequence: it either completes (consuming its full cost) or
    // truncates at b and reports infeasible. Model exactly that.
    const auto run_probe = [&](std::size_t i, std::uint64_t& b) {
      const std::uint64_t take = std::min(costs[i], b);
      b -= take;
      if (take < costs[i]) return false;
      return feas[i] != 0;
    };
    const std::uint64_t start = 1 + rng.below(60);
    const LedgerModel want = model(costs, feas, start);

    std::uint64_t budget = start;
    const CandidateScan got = scan_first_feasible(count, budget, run_probe);
    ASSERT_EQ(got.winner, want.winner) << "trial " << trial;
    ASSERT_EQ(got.exhausted, want.exhausted) << "trial " << trial;
    ASSERT_EQ(budget, want.left) << "trial " << trial;
    ASSERT_EQ(got.probes, want.probes) << "trial " << trial;
    if (got.winner >= 0) ++winners;
    if (got.exhausted) ++exhaustions;
  }
  // The sweep must reach both a winner and an exhausted budget.
  EXPECT_GT(winners, 50);
  EXPECT_GT(exhaustions, 50);
}

}  // namespace
}  // namespace jigsaw
