#include "stats/percentile.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/random.hpp"

namespace amoeba::stats {
namespace {

TEST(Percentile, MedianOfOddCount) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  // R-7 on {1,2,3,4}: q=0.5 -> 2.5.
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
}

TEST(Percentile, ExtremesAreMinMax) {
  std::vector<double> v = {5.0, -2.0, 9.0, 1.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), -2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 9.0);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({42.0}, 0.95), 42.0);
}

TEST(Percentile, RejectsEmptyAndBadQ) {
  EXPECT_THROW((void)percentile({}, 0.5), ContractError);
  EXPECT_THROW((void)percentile({1.0}, -0.1), ContractError);
  EXPECT_THROW((void)percentile({1.0}, 1.1), ContractError);
}

TEST(SampleSet, BasicStatistics) {
  SampleSet s;
  for (double x : {4.0, 1.0, 3.0, 2.0}) s.add(x);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 2.5);
}

TEST(SampleSet, QuantileMatchesFreeFunction) {
  sim::Rng rng(5);
  SampleSet s;
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform();
    s.add(x);
    v.push_back(x);
  }
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(s.quantile(q), percentile(v, q)) << "q=" << q;
  }
}

// The runtime's per-tick p95 selects in place (nth_element) where
// SampleSet sorts a copy. Both must give the same bits: the observed p95
// feeds the controller's backstop and every trace downstream.
TEST(SampleSet, InPlaceTickP95MatchesSortedQuantileBitForBit) {
  sim::Rng rng(2024);
  std::vector<std::size_t> sizes = {21, 22, 40, 41, 100, 101, 4095, 4096};
  for (int i = 0; i < 40; ++i) sizes.push_back(21 + rng.uniform_index(4076));
  for (std::size_t n : sizes) {
    for (int ties = 0; ties < 3; ++ties) {
      SampleSet set;
      std::vector<double> window;
      for (std::size_t i = 0; i < n; ++i) {
        double x = rng.lognormal_mean_cv(0.2, 0.8);
        // 1: latencies on a coarse 10 ms grid, so ranks tie often;
        // 2: a handful of distinct values, so the p95 ranks tie too.
        if (ties == 1) x = std::round(x * 100.0) / 100.0;
        if (ties == 2) x = 0.05 * static_cast<double>(rng.uniform_index(4));
        set.add(x);
        window.push_back(x);
      }
      const double want = set.quantile(0.95);
      const double got = percentile_inplace(window, 0.95);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << "n=" << n << " ties=" << ties;
    }
  }
}

TEST(SampleSet, CdfAtCountsInclusive) {
  SampleSet s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.cdf_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(2.0), 0.5);
  EXPECT_DOUBLE_EQ(s.cdf_at(10.0), 1.0);
}

TEST(SampleSet, FractionAboveThreshold) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.fraction_above(95.0), 0.05, 1e-12);
  EXPECT_DOUBLE_EQ(s.fraction_above(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.fraction_above(100.0), 0.0);
}

TEST(SampleSet, CdfCurveIsMonotone) {
  sim::Rng rng(6);
  SampleSet s;
  for (int i = 0; i < 500; ++i) s.add(rng.exponential(1.0));
  const auto curve = s.cdf_curve(20);
  ASSERT_EQ(curve.size(), 20u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].first, curve[i - 1].first);
    EXPECT_GT(curve[i].second, curve[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(curve.front().second, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(SampleSet, AddAfterQueryInvalidatesCache) {
  SampleSet s;
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.max(), 1.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(SampleSet, ClearResets) {
  SampleSet s;
  s.add(1.0);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.fraction_above(0.0), 0.0);
}

}  // namespace
}  // namespace amoeba::stats
