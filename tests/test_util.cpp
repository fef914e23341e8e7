#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/bitset64.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace jigsaw {
namespace {

TEST(Bitset64, LowBits) {
  EXPECT_EQ(low_bits(0), 0u);
  EXPECT_EQ(low_bits(1), 0b1u);
  EXPECT_EQ(low_bits(4), 0b1111u);
  EXPECT_EQ(low_bits(64), ~Mask{0});
}

TEST(Bitset64, LowestNBits) {
  EXPECT_EQ(lowest_n_bits(0b101101, 0), 0u);
  EXPECT_EQ(lowest_n_bits(0b101101, 1), 0b000001u);
  EXPECT_EQ(lowest_n_bits(0b101101, 3), 0b001101u);
  EXPECT_EQ(lowest_n_bits(0b101101, 4), 0b101101u);
}

TEST(Bitset64, ForEachBitVisitsAscending) {
  std::vector<int> seen;
  for_each_bit(0b1010011, [&](int i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 4, 6}));
}

TEST(Bitset64, SubsetOf) {
  EXPECT_TRUE(subset_of(0b0101, 0b1101));
  EXPECT_FALSE(subset_of(0b0111, 0b1101));
  EXPECT_TRUE(subset_of(0, 0));
}

TEST(Bitset64, RowKernels) {
  EXPECT_EQ(and_reduce_rows(nullptr, nullptr, 0), ~Mask{0});
  EXPECT_EQ(popcount_and_rows(nullptr, nullptr, 0), 0);
  EXPECT_TRUE(and_rows_viable(nullptr, nullptr, nullptr, 0, 64));

  const std::vector<Mask> ones(9, ~Mask{0});
  std::vector<Mask> out(9, 0);
  EXPECT_EQ(and_reduce_rows(ones.data(), ones.data(), 9), ~Mask{0});
  EXPECT_EQ(popcount_and_rows(ones.data(), ones.data(), 9), 9 * 64);
  EXPECT_TRUE(and_rows_viable(ones.data(), ones.data(), out.data(), 9, 64));
  EXPECT_FALSE(and_rows_viable(ones.data(), ones.data(), out.data(), 9, 65));

  // The first word already fails; every later word is still written.
  std::vector<Mask> a(9), b(9);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = low_bits(static_cast<int>(i) * 7);
    b[i] = ~Mask{0} << i;
  }
  out.assign(9, 0xABABABABABABABABULL);
  EXPECT_FALSE(and_rows_viable(a.data(), b.data(), out.data(), 9, 1));
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(out[i], a[i] & b[i]);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int k = 0; k < 100; ++k) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int k = 0; k < 64; ++k) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRangeAndCoversAll) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int k = 0; k < 1000; ++k) {
    const auto v = rng.below(5);
    ASSERT_LT(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int k = 0; k < n; ++k) sum += rng.exponential(16.0);
  EXPECT_NEAR(sum / n, 16.0, 0.3);
}

TEST(Rng, UniformBounds) {
  Rng rng(13);
  for (int k = 0; k < 1000; ++k) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Accumulator, BasicStatistics) {
  Accumulator acc;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25.0);
}

TEST(Percentile, EmptyThrows) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(BoundedHistogram, BucketsMatchTable2Style) {
  // The Table 2 buckets: <=60, 60-80, 80-90, 90-95, 95-98, >=98.
  BoundedHistogram h({60, 80, 90, 95, 98});
  h.add(50);
  h.add(70);
  h.add(85);
  h.add(92);
  h.add(96);
  h.add(99);
  h.add(98);  // boundary lands in the top bucket
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.count(5), 2u);
  EXPECT_EQ(h.total(), 7u);
}

TEST(BoundedHistogram, UnsortedBoundariesThrow) {
  EXPECT_THROW(BoundedHistogram({5, 3}), std::invalid_argument);
}

TEST(TablePrinter, RendersAlignedRows) {
  TablePrinter t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TablePrinter, RowWidthMismatchThrows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(CliFlags, ParsesValuesAndBooleans) {
  CliFlags flags;
  flags.define("jobs", "number of jobs", "100");
  flags.define_bool("full", "paper scale");
  const char* argv[] = {"prog", "--jobs", "250", "--full"};
  ASSERT_TRUE(flags.parse(4, const_cast<char**>(argv)));
  EXPECT_EQ(flags.integer("jobs"), 250);
  EXPECT_TRUE(flags.boolean("full"));
}

TEST(CliFlags, EqualsSyntaxAndDefaults) {
  CliFlags flags;
  flags.define("load", "offered load", "0.9");
  const char* argv[] = {"prog", "--load=1.25"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_DOUBLE_EQ(flags.real("load"), 1.25);
}

TEST(CliFlags, UnknownFlagThrows) {
  CliFlags flags;
  const char* argv[] = {"prog", "--nope"};
  EXPECT_THROW(flags.parse(2, const_cast<char**>(argv)),
               std::invalid_argument);
}

}  // namespace
}  // namespace jigsaw
