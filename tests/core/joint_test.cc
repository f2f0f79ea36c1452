#include "priste/core/joint.h"

#include "priste/core/two_world.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "priste/core/prior.h"
#include "priste/event/enumeration.h"
#include "priste/event/pattern.h"
#include "priste/event/presence.h"
#include "priste/markov/markov_chain.h"
#include "testing/test_util.h"

namespace priste::core {
namespace {

using event::PatternEvent;
using event::PresenceEvent;

struct JointCase {
  int seed;
  bool presence;
  int start;
  int window;
  int horizon;  // T >= window end, to exercise both lemma regimes
};

class JointEnumerationTest : public ::testing::TestWithParam<JointCase> {};

// The streaming JointCalculator must match brute-force enumeration of
// Pr(EVENT, o_1..o_t) at *every* prefix length t — covering Lemma III.2
// (t <= end) and Lemma III.3 (t > end).
TEST_P(JointEnumerationTest, MatchesEnumerationAtEveryPrefix) {
  const JointCase& c = GetParam();
  Rng rng(7000 + c.seed);
  const size_t m = 3;
  const auto chain = testing::RandomTransition(m, rng);
  const linalg::Vector pi = testing::RandomProbability(m, rng);
  std::vector<geo::Region> regions;
  for (int i = 0; i < c.window; ++i) regions.push_back(testing::RandomRegion(m, rng));

  event::EventPtr ev;
  if (c.presence) {
    ev = std::make_shared<PresenceEvent>(regions, c.start);
  } else {
    ev = std::make_shared<PatternEvent>(regions, c.start);
  }
  ASSERT_LE(ev->end(), c.horizon);
  const TwoWorldModel model(chain, ev);
  const markov::MarkovChain mc(chain, pi);
  const auto expr = ev->ToBooleanExpr();
  const auto not_expr = event::BoolExpr::Not(expr);

  JointCalculator calc(&model, pi);
  std::vector<linalg::Vector> emissions;
  for (int t = 1; t <= c.horizon; ++t) {
    emissions.push_back(testing::RandomEmissionColumn(m, rng));
    calc.Push(emissions.back());
    ASSERT_EQ(calc.current_time(), t);

    // Enumeration needs the horizon to cover the event window even for
    // short prefixes; pad the emission list with all-ones columns (no
    // observation) up to end.
    std::vector<linalg::Vector> padded = emissions;
    while (static_cast<int>(padded.size()) < ev->end()) {
      padded.push_back(linalg::Vector::Ones(m));
    }
    const double oracle_event = event::EnumerateJoint(mc, *expr, padded);
    const double oracle_not = event::EnumerateJoint(mc, *not_expr, padded);

    EXPECT_NEAR(calc.JointEvent(), oracle_event, 1e-12)
        << "t=" << t << " " << (c.presence ? "PRESENCE" : "PATTERN");
    EXPECT_NEAR(calc.JointNotEvent(), oracle_not, 1e-12) << "t=" << t;
    EXPECT_NEAR(calc.Marginal(), oracle_event + oracle_not, 1e-12) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, JointEnumerationTest,
    ::testing::Values(JointCase{0, true, 2, 2, 5}, JointCase{1, true, 1, 2, 4},
                      JointCase{2, true, 3, 1, 5}, JointCase{3, true, 2, 3, 6},
                      JointCase{4, false, 2, 2, 5}, JointCase{5, false, 1, 2, 4},
                      JointCase{6, false, 3, 1, 5}, JointCase{7, false, 2, 3, 6},
                      JointCase{8, true, 1, 1, 3}, JointCase{9, false, 1, 1, 3}));

TEST(JointCalculatorTest, MarginalMatchesForwardFilter) {
  // Marginal() must equal the standard HMM likelihood regardless of the
  // event encoded in the lifted chain.
  Rng rng(31);
  const size_t m = 4;
  const auto chain = testing::RandomTransition(m, rng);
  const linalg::Vector pi = testing::RandomProbability(m, rng);
  const auto ev = std::make_shared<PresenceEvent>(testing::RandomRegion(m, rng), 2, 3);
  const TwoWorldModel model(chain, ev);
  const markov::MarkovChain mc(chain, pi);

  JointCalculator calc(&model, pi);
  // Plain forward filter in the base chain.
  linalg::Vector alpha;
  for (int t = 1; t <= 6; ++t) {
    const linalg::Vector e = testing::RandomEmissionColumn(m, rng);
    calc.Push(e);
    if (t == 1) {
      alpha = pi.Hadamard(e);
    } else {
      alpha = chain.Propagate(alpha);
      alpha.HadamardInPlace(e);
    }
    EXPECT_NEAR(calc.Marginal(), alpha.Sum(), 1e-13) << "t=" << t;
  }
}

TEST(JointCalculatorTest, PosteriorConvergesWithPinnedObservations) {
  // Identity-like emissions that pin the user inside the region at the event
  // window should drive the posterior of PRESENCE to ~1.
  Rng rng(33);
  const size_t m = 3;
  const auto chain = testing::RandomTransition(m, rng);
  const linalg::Vector pi = testing::RandomProbability(m, rng);
  const auto ev = std::make_shared<PresenceEvent>(geo::Region(3, {0}), 2, 3);
  const TwoWorldModel model(chain, ev);

  JointCalculator calc(&model, pi);
  // Near-identity emission pinning state 0.
  linalg::Vector pin0(m, 1e-9);
  pin0[0] = 1.0;
  linalg::Vector anything = linalg::Vector::Ones(m);
  calc.Push(anything);
  calc.Push(pin0);  // at t=2 the user is (almost surely) at s1 — in region
  EXPECT_GT(calc.JointEvent() / calc.Marginal(), 0.999);
}

TEST(JointCalculatorTest, LikelihoodRatioIsPositiveAndFinite) {
  Rng rng(35);
  const size_t m = 3;
  const auto chain = testing::RandomTransition(m, rng);
  const linalg::Vector pi = testing::RandomProbability(m, rng);
  const auto ev = std::make_shared<PresenceEvent>(testing::RandomRegion(m, rng), 2, 3);
  const TwoWorldModel model(chain, ev);
  JointCalculator calc(&model, pi);
  for (int t = 1; t <= 5; ++t) {
    calc.Push(testing::RandomEmissionColumn(m, rng));
    const double ratio = calc.LikelihoodRatio();
    EXPECT_GT(ratio, 0.0);
    EXPECT_TRUE(std::isfinite(ratio));
  }
}

TEST(JointCalculatorTest, UniformEmissionsKeepRatioAtOne) {
  // With uninformative observations the likelihood ratio stays exactly 1.
  Rng rng(37);
  const size_t m = 3;
  const auto chain = testing::RandomTransition(m, rng);
  const linalg::Vector pi = testing::RandomProbability(m, rng);
  const auto ev = std::make_shared<PresenceEvent>(testing::RandomRegion(m, rng), 2, 4);
  const TwoWorldModel model(chain, ev);
  JointCalculator calc(&model, pi);
  const linalg::Vector uniform(m, 1.0 / static_cast<double>(m));
  for (int t = 1; t <= 6; ++t) {
    calc.Push(uniform);
    EXPECT_NEAR(calc.LikelihoodRatio(), 1.0, 1e-9) << "t=" << t;
  }
}

}  // namespace
}  // namespace priste::core
