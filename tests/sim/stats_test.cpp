#include "sim/stats.hpp"

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

namespace nicmcast::sim {
namespace {

TEST(OnlineStats, MeanOfKnownValues) {
  OnlineStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(OnlineStats, SampleVariance) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);  // n-1 denominator
  EXPECT_NEAR(s.stddev(), 2.13809, 1e-4);
}

TEST(OnlineStats, SingleSampleHasZeroVariance) {
  OnlineStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, EmptyDefaults) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(OnlineStats, MergeMatchesSingleStream) {
  const std::vector<double> all{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  OnlineStats whole;
  for (double x : all) whole.add(x);

  OnlineStats a, b;
  for (std::size_t i = 0; i < all.size(); ++i) {
    (i < 3 ? a : b).add(all[i]);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.mean(), whole.mean());
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmptyIsIdentityBothWays) {
  OnlineStats s;
  for (double x : {1.0, 3.0}) s.add(x);
  OnlineStats empty;
  s.merge(empty);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);

  OnlineStats target;
  target.merge(s);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 2.0);
  EXPECT_DOUBLE_EQ(target.min(), 1.0);
}

TEST(Series, PercentileInterpolates) {
  Series s;
  for (double x : {10.0, 20.0, 30.0, 40.0, 50.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 30.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 20.0);
  EXPECT_DOUBLE_EQ(s.percentile(12.5), 15.0);  // between samples
}

TEST(Series, MedianOfEvenCount) {
  Series s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
}

TEST(Series, PercentileOfEmptyThrows) {
  Series s;
  EXPECT_THROW(static_cast<void>(s.percentile(50)), std::logic_error);
}

TEST(Series, PercentileCacheInvalidatedByAdd) {
  Series s;
  for (double x : {30.0, 10.0, 20.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.median(), 20.0);  // primes the sorted cache
  EXPECT_DOUBLE_EQ(s.percentile(100), 30.0);
  s.add(5.0);  // must invalidate the cache
  EXPECT_DOUBLE_EQ(s.median(), 15.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 5.0);
  s.add(40.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  // Raw sample order is preserved despite the sorted view.
  EXPECT_DOUBLE_EQ(s.samples()[0], 30.0);
  EXPECT_DOUBLE_EQ(s.samples()[4], 40.0);
}

TEST(Series, UnsortedInputHandled) {
  Series s;
  for (double x : {5.0, 1.0, 3.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

}  // namespace
}  // namespace nicmcast::sim
