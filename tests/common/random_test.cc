#include "priste/common/random.h"

#include <cmath>

#include <gtest/gtest.h>

namespace priste {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform(2.0, 4.0);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(RngTest, NextBelowIsUnbiased) {
  Rng rng(13);
  std::vector<int> counts(5, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBelow(5)];
  for (int c : counts) EXPECT_NEAR(c, n / 5.0, 5 * std::sqrt(n / 5.0));
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, SampleDiscreteMatchesWeights) {
  Rng rng(29);
  const std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.SampleDiscrete(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0], n * 0.1, 400);
  EXPECT_NEAR(counts[1], n * 0.3, 600);
  EXPECT_NEAR(counts[3], n * 0.6, 700);
}

TEST(RngTest, SampleDiscreteSingleItem) {
  Rng rng(31);
  EXPECT_EQ(rng.SampleDiscrete({5.0}), 0);
}

TEST(RngTest, SplitStreamsAreIndependentlySeeded) {
  Rng parent(37);
  Rng child1 = parent.Split();
  Rng child2 = parent.Split();
  // Streams should not be identical.
  bool differ = false;
  for (int i = 0; i < 16 && !differ; ++i) {
    differ = child1.NextUint64() != child2.NextUint64();
  }
  EXPECT_TRUE(differ);
}

}  // namespace
}  // namespace priste
