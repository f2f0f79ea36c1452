// Numerical-stability and failure-injection suite (DESIGN.md §5 invariants
// 5 and edge cases): long horizons, extreme emissions, boundary events.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "priste/core/joint.h"
#include "priste/core/prior.h"
#include "priste/core/priste_geo_ind.h"
#include "priste/core/quantifier.h"
#include "priste/core/two_world.h"
#include "priste/event/pattern.h"
#include "priste/event/presence.h"
#include "priste/geo/gaussian_grid_model.h"
#include "testing/test_util.h"

namespace priste::core {
namespace {

TEST(StabilityTest, LongHorizonConditionsStayFinite) {
  // 150 timestamps of informative emissions: with max-norm normalization the
  // Theorem vectors must stay finite and non-degenerate.
  Rng rng(91);
  const size_t m = 9;
  const auto chain = testing::RandomTransition(m, rng);
  const auto ev = std::make_shared<event::PresenceEvent>(
      testing::RandomRegion(m, rng), 3, 6);
  const TwoWorldModel model(chain, ev);
  const PrivacyQuantifier quantifier(&model);

  std::vector<linalg::Vector> emissions;
  for (int t = 1; t <= 150; ++t) {
    emissions.push_back(testing::RandomEmissionColumn(m, rng));
  }
  const TheoremVectors v = quantifier.ComputeVectors(emissions);
  for (size_t i = 0; i < m; ++i) {
    EXPECT_TRUE(std::isfinite(v.b_bar[i]));
    EXPECT_TRUE(std::isfinite(v.c_bar[i]));
    EXPECT_GE(v.c_bar[i], 0.0);
  }
  EXPECT_GT(v.c_bar.MaxAbs(), 0.0);
  // Conditions evaluable at a random prior.
  const linalg::Vector pi = testing::RandomProbability(m, rng);
  EXPECT_TRUE(std::isfinite(PrivacyQuantifier::Condition15(v, pi, 0.5)));
  EXPECT_TRUE(std::isfinite(PrivacyQuantifier::Condition16(v, pi, 0.5)));
}

TEST(StabilityTest, LongProductsStayStochastic) {
  // Lifted forward mass is conserved over hundreds of steps.
  Rng rng(93);
  const size_t m = 6;
  const auto chain = testing::RandomTransition(m, rng);
  const auto ev = std::make_shared<event::PresenceEvent>(
      testing::RandomRegion(m, rng), 5, 9);
  const TwoWorldModel model(chain, ev);
  linalg::Vector state = model.LiftInitial(testing::RandomProbability(m, rng));
  for (int t = 1; t <= 500; ++t) {
    state = model.StepRow(state, t);
    ASSERT_NEAR(state.Sum(), 1.0, 1e-9) << "t=" << t;
    ASSERT_TRUE(state.AllInRange(0.0, 1.0, 1e-9)) << "t=" << t;
  }
}

TEST(StabilityTest, NearZeroEmissionColumnsDoNotPoisonJoint) {
  Rng rng(95);
  const size_t m = 4;
  const auto chain = testing::RandomTransition(m, rng);
  const auto ev = std::make_shared<event::PresenceEvent>(
      testing::RandomRegion(m, rng), 2, 3);
  const TwoWorldModel model(chain, ev);
  JointCalculator calc(&model, testing::RandomProbability(m, rng));
  linalg::Vector tiny(m, 1e-300);
  tiny[0] = 1e-290;
  for (int t = 1; t <= 4; ++t) calc.Push(tiny);
  EXPECT_GE(calc.JointEvent(), 0.0);
  EXPECT_GE(calc.Marginal(), calc.JointEvent());
}

TEST(StabilityTest, EventEndingAtTrajectoryEndWorks) {
  const geo::Grid grid(3, 3, 1.0);
  const geo::GaussianGridModel mobility(grid, 1.0);
  const auto ev = std::make_shared<event::PresenceEvent>(
      geo::Region(9, {0, 1}), 4, 6);
  PristeOptions options;
  const PristeGeoInd priste(grid, mobility.transition(), {ev}, options);
  Rng rng(97);
  const markov::MarkovChain chain = mobility.ChainUniformStart();
  // Trajectory ends exactly at the event end.
  const geo::Trajectory truth(chain.Sample(6, rng));
  const auto result = priste.Run(truth, rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->released.length(), 6);
}

TEST(StabilityTest, SingleTimestampEventAtStartOne) {
  // The degenerate smallest event: a single-timestamp region at t = 1.
  Rng rng(99);
  const size_t m = 4;
  const auto chain = testing::RandomTransition(m, rng);
  const geo::Region region = testing::RandomRegion(m, rng);
  const auto ev = std::make_shared<event::PresenceEvent>(region, 1, 1);
  const TwoWorldModel model(chain, ev);
  const linalg::Vector pi = testing::RandomProbability(m, rng);
  // Prior is simply the region mass under π.
  double expected = 0.0;
  for (int s : region.States()) expected += pi[static_cast<size_t>(s)];
  EXPECT_NEAR(EventPrior(model, pi), expected, 1e-12);
}

TEST(StabilityTest, WholeTrajectoryPatternWindow) {
  // PATTERN window covering the entire horizon (start=1, end=T).
  Rng rng(101);
  const size_t m = 3;
  const auto chain = testing::RandomTransition(m, rng);
  const auto ev = std::make_shared<event::PatternEvent>(
      testing::RandomRegion(m, rng), 1, 4);
  const TwoWorldModel model(chain, ev);
  JointCalculator calc(&model, testing::RandomProbability(m, rng));
  for (int t = 1; t <= 4; ++t) {
    calc.Push(testing::RandomEmissionColumn(m, rng));
    EXPECT_GE(calc.Marginal(), calc.JointEvent());
  }
}

TEST(StabilityTest, QuantifierAgreesAcrossNormalizationOnLongHorizon) {
  // On moderately long horizons where raw products are still representable,
  // the normalized and raw paths must certify identically.
  Rng rng(103);
  const size_t m = 4;
  const auto chain = testing::RandomTransition(m, rng);
  const auto ev = std::make_shared<event::PresenceEvent>(
      testing::RandomRegion(m, rng), 2, 4);
  const TwoWorldModel model(chain, ev);
  const PrivacyQuantifier raw(&model, false);
  const PrivacyQuantifier normalized(&model, true);
  const QpSolver solver;

  std::vector<linalg::Vector> emissions;
  for (int t = 1; t <= 12; ++t) {
    emissions.push_back(testing::RandomEmissionColumn(m, rng));
    const auto vr = raw.ComputeVectors(emissions);
    const auto vn = normalized.ComputeVectors(emissions);
    for (const double eps : {0.3, 1.5}) {
      const auto cr = raw.CheckArbitraryPrior(vr, eps, solver, Deadline::Infinite());
      const auto cn =
          normalized.CheckArbitraryPrior(vn, eps, solver, Deadline::Infinite());
      EXPECT_EQ(cr.satisfied, cn.satisfied) << "t=" << t << " eps=" << eps;
    }
  }
}

}  // namespace
}  // namespace priste::core
