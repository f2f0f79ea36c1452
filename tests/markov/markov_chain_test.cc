#include "priste/markov/markov_chain.h"

#include <gtest/gtest.h>

#include "testing/test_util.h"

namespace priste::markov {
namespace {

TEST(MarkovChainTest, SampleHasRequestedLength) {
  Rng rng(3);
  const MarkovChain chain(testing::RandomTransition(4, rng),
                          linalg::Vector::UniformProbability(4));
  EXPECT_EQ(chain.Sample(10, rng).size(), 10u);
}

TEST(MarkovChainTest, SampleStatesInRange) {
  Rng rng(5);
  const MarkovChain chain(testing::RandomTransition(3, rng),
                          linalg::Vector::UniformProbability(3));
  for (int s : chain.Sample(200, rng)) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 3);
  }
}

TEST(MarkovChainTest, MarginalMatchesEmpiricalFrequencies) {
  Rng rng(7);
  const MarkovChain chain(testing::RandomTransition(3, rng),
                          testing::RandomProbability(3, rng));
  const int runs = 50000;
  std::vector<int> counts(3, 0);
  for (int r = 0; r < runs; ++r) {
    ++counts[static_cast<size_t>(chain.Sample(4, rng)[3])];
  }
  const linalg::Vector expected = chain.MarginalAt(4);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_NEAR(counts[s] / static_cast<double>(runs), expected[s], 0.01);
  }
}

TEST(MarkovChainTest, TrajectoryProbabilityKnownValue) {
  const auto m = TransitionMatrix::Create(
      linalg::Matrix{{0.1, 0.9}, {0.4, 0.6}});
  ASSERT_TRUE(m.ok());
  const MarkovChain chain(*m, linalg::Vector{0.3, 0.7});
  EXPECT_NEAR(chain.TrajectoryProbability({0, 1, 0}), 0.3 * 0.9 * 0.4, 1e-15);
}

TEST(MarkovChainTest, TrajectoryProbabilitiesSumToOne) {
  Rng rng(11);
  const MarkovChain chain(testing::RandomTransition(3, rng),
                          testing::RandomProbability(3, rng));
  // Σ over all length-3 trajectories = 1.
  double total = 0.0;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      for (int c = 0; c < 3; ++c) total += chain.TrajectoryProbability({a, b, c});
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

}  // namespace
}  // namespace priste::markov
