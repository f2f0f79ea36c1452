#include "priste/markov/estimator.h"

#include <gtest/gtest.h>

#include "priste/markov/markov_chain.h"
#include "testing/test_util.h"

namespace priste::markov {
namespace {

TEST(EstimatorTest, RecoversKnownChain) {
  Rng rng(3);
  const TransitionMatrix truth = testing::RandomTransition(4, rng);
  const MarkovChain chain(truth, linalg::Vector::UniformProbability(4));
  std::vector<std::vector<int>> trajectories;
  for (int i = 0; i < 200; ++i) trajectories.push_back(chain.Sample(500, rng));

  const auto estimated = EstimateTransitionMatrix(trajectories, 4);
  ASSERT_TRUE(estimated.ok());
  EXPECT_LT(estimated->matrix().MaxAbsDiff(truth.matrix()), 0.02);
}

TEST(EstimatorTest, SmoothingFillsUnvisitedRows) {
  // State 2 never appears; with smoothing its row must be uniform-ish valid.
  const std::vector<std::vector<int>> trajectories = {{0, 1, 0, 1}};
  const auto estimated = EstimateTransitionMatrix(trajectories, 3, 1.0);
  ASSERT_TRUE(estimated.ok());
  EXPECT_NEAR(estimated->RowDistribution(2).Sum(), 1.0, 1e-12);
  EXPECT_NEAR((*estimated)(2, 0), 1.0 / 3.0, 1e-12);
}

TEST(EstimatorTest, NoSmoothingUnvisitedRowFallsBackToUniform) {
  const std::vector<std::vector<int>> trajectories = {{0, 1, 0}};
  const auto estimated = EstimateTransitionMatrix(trajectories, 3, 0.0);
  ASSERT_TRUE(estimated.ok());
  EXPECT_NEAR((*estimated)(2, 1), 1.0 / 3.0, 1e-12);
}

TEST(EstimatorTest, RejectsOutOfRangeStates) {
  EXPECT_FALSE(EstimateTransitionMatrix({{0, 5}}, 3).ok());
  EXPECT_FALSE(EstimateTransitionMatrix({{-1, 0}}, 3).ok());
  EXPECT_FALSE(EstimateTransitionMatrix({{0, 1}}, 0).ok());
}

TEST(EstimatorTest, RejectsNegativeSmoothing) {
  EXPECT_FALSE(EstimateTransitionMatrix({{0, 1}}, 2, -1.0).ok());
}

TEST(EstimatorTest, DeterministicChainEstimatesExactly) {
  // 0 -> 1 -> 0 -> 1 ... deterministic cycle.
  const std::vector<std::vector<int>> trajectories = {{0, 1, 0, 1, 0, 1}};
  const auto estimated = EstimateTransitionMatrix(trajectories, 2);
  ASSERT_TRUE(estimated.ok());
  EXPECT_NEAR((*estimated)(0, 1), 1.0, 1e-12);
  EXPECT_NEAR((*estimated)(1, 0), 1.0, 1e-12);
}

}  // namespace
}  // namespace priste::markov
