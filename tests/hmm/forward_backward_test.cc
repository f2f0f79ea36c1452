#include "priste/hmm/forward_backward.h"

#include <cmath>

#include <gtest/gtest.h>

#include "priste/markov/markov_chain.h"
#include "testing/test_util.h"

namespace priste::hmm {
namespace {

// Brute-force Pr(o_1..o_T) by enumerating all trajectories.
double EnumeratedLikelihood(const markov::MarkovChain& chain,
                            const std::vector<linalg::Vector>& emissions) {
  const size_t m = chain.num_states();
  const int T = static_cast<int>(emissions.size());
  std::vector<int> traj(static_cast<size_t>(T), 0);
  double total = 0.0;
  for (;;) {
    double p = chain.TrajectoryProbability(traj);
    for (int t = 0; t < T; ++t) {
      p *= emissions[static_cast<size_t>(t)][static_cast<size_t>(traj[static_cast<size_t>(t)])];
    }
    total += p;
    int pos = T - 1;
    while (pos >= 0) {
      if (static_cast<size_t>(++traj[static_cast<size_t>(pos)]) < m) break;
      traj[static_cast<size_t>(pos)] = 0;
      --pos;
    }
    if (pos < 0) break;
  }
  return total;
}

class ForwardBackwardPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ForwardBackwardPropertyTest, LikelihoodMatchesEnumeration) {
  Rng rng(1000 + GetParam());
  const size_t m = 3;
  const markov::MarkovChain chain(testing::RandomTransition(m, rng),
                                  testing::RandomProbability(m, rng));
  std::vector<linalg::Vector> emissions;
  const int T = 2 + GetParam() % 4;
  for (int t = 0; t < T; ++t) {
    emissions.push_back(testing::RandomEmissionColumn(m, rng));
  }
  const auto result = ForwardBackward(chain.transition(), chain.initial(), emissions);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->likelihood, EnumeratedLikelihood(chain, emissions), 1e-12);
}

TEST_P(ForwardBackwardPropertyTest, PosteriorsAreDistributions) {
  Rng rng(2000 + GetParam());
  const size_t m = 4;
  const markov::MarkovChain chain(testing::RandomTransition(m, rng),
                                  testing::RandomProbability(m, rng));
  std::vector<linalg::Vector> emissions;
  for (int t = 0; t < 5; ++t) {
    emissions.push_back(testing::RandomEmissionColumn(m, rng));
  }
  const auto result = ForwardBackward(chain.transition(), chain.initial(), emissions);
  ASSERT_TRUE(result.ok());
  for (const auto& post : result->posteriors) {
    EXPECT_NEAR(post.Sum(), 1.0, 1e-10);
    EXPECT_TRUE(post.AllInRange(0.0, 1.0));
  }
}

TEST_P(ForwardBackwardPropertyTest, AlphaBetaProductIsConstantLikelihood) {
  // Scaled pairing: Σ_k α̂_t^k β̂_t^k == 1 at every t; reconstructing the
  // unscaled vectors through the scale factors recovers the paper's
  // invariant Σ_k α_t^k β_t^k == Pr(o_1..o_T).
  Rng rng(3000 + GetParam());
  const size_t m = 3;
  const markov::MarkovChain chain(testing::RandomTransition(m, rng),
                                  testing::RandomProbability(m, rng));
  std::vector<linalg::Vector> emissions;
  for (int t = 0; t < 6; ++t) {
    emissions.push_back(testing::RandomEmissionColumn(m, rng));
  }
  const auto result = ForwardBackward(chain.transition(), chain.initial(), emissions);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->scales.size(), emissions.size());
  double prefix = 1.0;  // ∏_{i≤t} c_i
  for (size_t t = 0; t < emissions.size(); ++t) {
    EXPECT_NEAR(result->alphas[t].Dot(result->betas[t]), 1.0, 1e-12);
    prefix *= result->scales[t];
    double suffix = 1.0;  // ∏_{i>t} c_i
    for (size_t i = t + 1; i < emissions.size(); ++i) suffix *= result->scales[i];
    const double unscaled =
        result->alphas[t].Scaled(prefix).Dot(result->betas[t].Scaled(suffix));
    EXPECT_NEAR(unscaled, result->likelihood, 1e-12);
  }
}

TEST(ForwardBackwardTest, ScaleProductIsTheLikelihood) {
  Rng rng(4000);
  const size_t m = 4;
  const markov::MarkovChain chain(testing::RandomTransition(m, rng),
                                  testing::RandomProbability(m, rng));
  std::vector<linalg::Vector> emissions;
  for (int t = 0; t < 5; ++t) {
    emissions.push_back(testing::RandomEmissionColumn(m, rng));
  }
  const auto result = ForwardBackward(chain.transition(), chain.initial(), emissions);
  ASSERT_TRUE(result.ok());
  double product = 1.0;
  double log_sum = 0.0;
  for (const double c : result->scales) {
    product *= c;
    log_sum += std::log(c);
  }
  EXPECT_NEAR(product, result->likelihood, 1e-13);
  EXPECT_NEAR(log_sum, result->log_likelihood, 1e-12);
  // Every scaled forward vector is a probability distribution.
  for (const auto& alpha : result->alphas) {
    EXPECT_NEAR(alpha.Sum(), 1.0, 1e-12);
  }
}

TEST(ForwardBackwardTest, LongTrajectoryDoesNotUnderflow) {
  // Before per-step scaling, T=600 steps of ~1e-3 emission mass drove the
  // raw α to ~1e-1800 — a spurious FailedPrecondition("observations have
  // zero probability"). The scaled pass must succeed with an exact
  // log-likelihood even though the raw likelihood underflows to 0.
  Rng rng(4100);
  const size_t m = 4;
  const markov::MarkovChain chain(testing::RandomTransition(m, rng),
                                  testing::RandomProbability(m, rng));
  std::vector<linalg::Vector> emissions;
  for (int t = 0; t < 600; ++t) {
    emissions.push_back(testing::RandomEmissionColumn(m, rng).Scaled(1e-3));
  }
  const auto result = ForwardBackward(chain.transition(), chain.initial(), emissions);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(std::isfinite(result->log_likelihood));
  EXPECT_LT(result->log_likelihood, -1000.0);
  EXPECT_EQ(result->likelihood, 0.0);  // genuinely below double range
  for (const auto& post : result->posteriors) {
    EXPECT_NEAR(post.Sum(), 1.0, 1e-10);
    EXPECT_TRUE(post.AllInRange(0.0, 1.0));
  }
}

INSTANTIATE_TEST_SUITE_P(Trials, ForwardBackwardPropertyTest,
                         ::testing::Range(0, 8));

TEST(ForwardBackwardTest, IdentityEmissionPinsState) {
  Rng rng(7);
  const size_t m = 3;
  const markov::MarkovChain chain(testing::RandomTransition(m, rng),
                                  testing::RandomProbability(m, rng));
  // Observation "state 2 exactly" at both timestamps.
  const linalg::Vector pin = linalg::Vector::Unit(m, 2);
  const auto result = ForwardBackward(chain.transition(), chain.initial(), {pin, pin});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->posteriors[0][2], 1.0, 1e-12);
  EXPECT_NEAR(result->posteriors[1][2], 1.0, 1e-12);
}

TEST(ForwardBackwardTest, RejectsBadInputs) {
  Rng rng(9);
  const auto chain = testing::RandomTransition(3, rng);
  const linalg::Vector pi = linalg::Vector::UniformProbability(3);
  EXPECT_FALSE(ForwardBackward(chain, linalg::Vector(2), {pi}).ok());
  EXPECT_FALSE(ForwardBackward(chain, pi, std::vector<linalg::Vector>{}).ok());
  EXPECT_FALSE(ForwardBackward(chain, pi, {linalg::Vector(2)}).ok());
}

TEST(ForwardOnlyTest, MatchesFullPassAlphas) {
  Rng rng(11);
  const size_t m = 4;
  const markov::MarkovChain chain(testing::RandomTransition(m, rng),
                                  testing::RandomProbability(m, rng));
  std::vector<linalg::Vector> emissions;
  for (int t = 0; t < 4; ++t) {
    emissions.push_back(testing::RandomEmissionColumn(m, rng));
  }
  const auto full = ForwardBackward(chain.transition(), chain.initial(), emissions);
  const auto fwd = ForwardOnly(chain.transition(), chain.initial(), emissions);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(fwd.ok());
  for (size_t t = 0; t < emissions.size(); ++t) {
    EXPECT_LT(full->alphas[t].Minus((*fwd)[t]).MaxAbs(), 1e-14);
  }
}

TEST(PosteriorUpdateTest, BayesRuleKnownValue) {
  const auto post = PosteriorUpdate(linalg::Vector{0.5, 0.5},
                                    linalg::Vector{0.9, 0.1});
  ASSERT_TRUE(post.ok());
  EXPECT_NEAR((*post)[0], 0.9, 1e-12);
  EXPECT_NEAR((*post)[1], 0.1, 1e-12);
}

TEST(PosteriorUpdateTest, RejectsImpossibleEvidence) {
  EXPECT_FALSE(PosteriorUpdate(linalg::Vector{1.0, 0.0},
                               linalg::Vector{0.0, 1.0}).ok());
  EXPECT_FALSE(PosteriorUpdate(linalg::Vector{0.5, 0.5}, linalg::Vector{0.1}).ok());
}

TEST(ForwardBackwardTest, ImpossibleSequenceFailsCleanly) {
  const auto chain = markov::TransitionMatrix::Identity(6);
  const linalg::Vector initial = linalg::Vector::UniformProbability(6);
  // Two disjoint one-hot observations under the identity chain: zero
  // probability, reported as FailedPrecondition (not a crash or NaN).
  linalg::Vector first(6), second(6);
  first[0] = 1.0;
  second[3] = 1.0;
  const std::vector<linalg::Vector> impossible = {first, second};
  const auto result = ForwardBackward(chain, initial, impossible);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace priste::hmm
