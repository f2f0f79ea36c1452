#include "priste/eval/aggregate.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace priste::eval {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStatsTest, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, SingleSampleHasZeroStddev) {
  RunningStats s;
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStatsTest, ConstantSeriesAtHugeScaleHasZeroStddev) {
  // Welford's m2_ can be driven infinitesimally negative by cancellation;
  // stddev must clamp instead of returning sqrt(negative) = NaN.
  RunningStats s;
  for (int i = 0; i < 64; ++i) s.Add(1e300);
  EXPECT_DOUBLE_EQ(s.mean(), 1e300);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStatsTest, NearConstantSeriesNeverYieldsNanStddev) {
  const double eps = std::numeric_limits<double>::epsilon();
  for (const double scale : {1.0, 1e-300, 1e300}) {
    RunningStats s;
    for (int i = 0; i < 1000; ++i) {
      s.Add(scale * (1.0 + (i % 3 == 0 ? eps : 0.0)));
    }
    const double sd = s.stddev();
    EXPECT_FALSE(std::isnan(sd)) << "scale=" << scale;
    EXPECT_GE(sd, 0.0) << "scale=" << scale;
  }
}

TEST(SeriesStatsTest, PerIndexAggregation) {
  SeriesStats s;
  s.AddSeries({1.0, 10.0});
  s.AddSeries({3.0, 20.0});
  ASSERT_EQ(s.length(), 2u);
  EXPECT_DOUBLE_EQ(s.At(0).mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.At(1).mean(), 15.0);
  EXPECT_GT(s.At(1).stddev(), 0.0);
}

}  // namespace
}  // namespace priste::eval
