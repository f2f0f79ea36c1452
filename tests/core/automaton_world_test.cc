#include "priste/core/automaton_world.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "priste/core/joint.h"
#include "priste/core/prior.h"
#include "priste/core/priste_geo_ind.h"
#include "priste/core/quantifier.h"
#include "priste/core/two_world.h"
#include "priste/event/enumeration.h"
#include "priste/event/presence.h"
#include "priste/geo/gaussian_grid_model.h"
#include "testing/test_util.h"

namespace priste::core {
namespace {

using markov::TransitionSchedule;

std::shared_ptr<AutomatonWorldModel> MustCreate(const markov::TransitionMatrix& chain,
                                                const event::BoolExpr& expr) {
  auto model = AutomatonWorldModel::Create(TransitionSchedule::Homogeneous(chain),
                                           expr);
  PRISTE_CHECK(model.ok());
  return std::move(model).value();
}

// Property: prior and joint from the automaton lifting equal brute-force
// enumeration for random Boolean expressions — the generalization of the
// Lemma III.1/III.2/III.3 invariants beyond PRESENCE/PATTERN.
class AutomatonWorldPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AutomatonWorldPropertyTest, PriorMatchesEnumeration) {
  Rng rng(5100 + GetParam());
  const size_t m = 3;
  const auto chain = testing::RandomTransition(m, rng);
  const linalg::Vector pi = testing::RandomProbability(m, rng);
  const auto expr = testing::RandomBoolExpr(m, /*max_t=*/3, /*depth=*/3, rng);
  const auto model = MustCreate(chain, *expr);

  const markov::MarkovChain mc(chain, pi);
  const double oracle = event::EnumeratePrior(mc, *expr, model->event_end());
  EXPECT_NEAR(EventPrior(*model, pi), oracle, 1e-12) << expr->ToString();
}

TEST_P(AutomatonWorldPropertyTest, JointMatchesEnumerationAtEveryPrefix) {
  Rng rng(5200 + GetParam());
  const size_t m = 3;
  const auto chain = testing::RandomTransition(m, rng);
  const linalg::Vector pi = testing::RandomProbability(m, rng);
  const auto expr = testing::RandomBoolExpr(m, /*max_t=*/3, /*depth=*/2, rng);
  const auto model = MustCreate(chain, *expr);
  const markov::MarkovChain mc(chain, pi);
  const auto not_expr = event::BoolExpr::Not(expr);

  JointCalculator calc(model.get(), pi);
  std::vector<linalg::Vector> emissions;
  const int horizon = model->event_end() + 2;
  for (int t = 1; t <= horizon; ++t) {
    emissions.push_back(testing::RandomEmissionColumn(m, rng));
    calc.Push(emissions.back());
    std::vector<linalg::Vector> padded = emissions;
    while (static_cast<int>(padded.size()) < model->event_end()) {
      padded.push_back(linalg::Vector::Ones(m));
    }
    EXPECT_NEAR(calc.JointEvent(), event::EnumerateJoint(mc, *expr, padded), 1e-12)
        << expr->ToString() << " t=" << t;
    EXPECT_NEAR(calc.JointNotEvent(), event::EnumerateJoint(mc, *not_expr, padded),
                1e-12)
        << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Trials, AutomatonWorldPropertyTest,
                         ::testing::Range(0, 15));

TEST(AutomatonWorldTest, AgreesWithTwoWorldOnPresence) {
  Rng rng(61);
  const size_t m = 4;
  const auto chain = testing::RandomTransition(m, rng);
  const linalg::Vector pi = testing::RandomProbability(m, rng);
  const auto ev = std::make_shared<event::PresenceEvent>(
      testing::RandomRegion(m, rng), 2, 4);
  const TwoWorldModel two_world(chain, ev);
  const auto automaton = MustCreate(chain, *ev->ToBooleanExpr());

  EXPECT_NEAR(EventPrior(two_world, pi), EventPrior(*automaton, pi), 1e-12);
  EXPECT_LT(two_world.PriorContraction()
                .Minus(automaton->PriorContraction())
                .MaxAbs(),
            1e-12);

  JointCalculator calc_a(&two_world, pi);
  JointCalculator calc_b(automaton.get(), pi);
  for (int t = 1; t <= 6; ++t) {
    const linalg::Vector e = testing::RandomEmissionColumn(m, rng);
    calc_a.Push(e);
    calc_b.Push(e);
    EXPECT_NEAR(calc_a.JointEvent(), calc_b.JointEvent(), 1e-12) << "t=" << t;
    EXPECT_NEAR(calc_a.Marginal(), calc_b.Marginal(), 1e-12) << "t=" << t;
  }
}

TEST(AutomatonWorldTest, QuantifierVectorsAgreeWithTwoWorld) {
  Rng rng(63);
  const size_t m = 3;
  const auto chain = testing::RandomTransition(m, rng);
  const auto ev = std::make_shared<event::PresenceEvent>(
      testing::RandomRegion(m, rng), 2, 3);
  const TwoWorldModel two_world(chain, ev);
  const auto automaton = MustCreate(chain, *ev->ToBooleanExpr());

  const PrivacyQuantifier qa(&two_world, false);
  const PrivacyQuantifier qb(automaton.get(), false);
  std::vector<linalg::Vector> emissions;
  for (int t = 1; t <= 5; ++t) {
    emissions.push_back(testing::RandomEmissionColumn(m, rng));
    const TheoremVectors va = qa.ComputeVectors(emissions);
    const TheoremVectors vb = qb.ComputeVectors(emissions);
    EXPECT_LT(va.a_bar.Minus(vb.a_bar).MaxAbs(), 1e-12) << "t=" << t;
    EXPECT_LT(va.b_bar.Minus(vb.b_bar).MaxAbs(), 1e-12) << "t=" << t;
    EXPECT_LT(va.c_bar.Minus(vb.c_bar).MaxAbs(), 1e-12) << "t=" << t;
  }
}

TEST(AutomatonWorldTest, PristeProtectsAtLeastTwiceEvent) {
  // End-to-end: Algorithm 2 over an automaton-lifted "visited the clinic at
  // least twice during {2,3,4}" secret — beyond PRESENCE/PATTERN.
  const geo::Grid grid(4, 4, 1.0);
  const geo::GaussianGridModel mobility(grid, 1.0);
  const size_t m = grid.num_cells();

  std::vector<event::BoolExpr::Ptr> pair_terms;
  const std::vector<int> clinic = {0, 1};
  const auto at_clinic = [&](int t) {
    std::vector<event::BoolExpr::Ptr> cells;
    for (int c : clinic) cells.push_back(event::BoolExpr::Pred(t, c));
    return event::BoolExpr::OrAll(cells);
  };
  for (int t1 = 2; t1 <= 4; ++t1) {
    for (int t2 = t1 + 1; t2 <= 4; ++t2) {
      pair_terms.push_back(event::BoolExpr::And(at_clinic(t1), at_clinic(t2)));
    }
  }
  const auto expr = event::BoolExpr::OrAll(pair_terms);

  auto model = AutomatonWorldModel::Create(
      TransitionSchedule::Homogeneous(mobility.transition()), *expr);
  ASSERT_TRUE(model.ok());

  PristeOptions options;
  const double epsilon = 0.7;
  options.epsilon = epsilon;
  options.initial_alpha = 0.4;

  const PristeGeoInd priste(grid, {*model}, options);
  Rng rng(65);
  const markov::MarkovChain chain = mobility.ChainUniformStart();
  const geo::Trajectory truth(chain.Sample(6, rng));
  const auto result = priste.Run(truth, rng);
  ASSERT_TRUE(result.ok()) << result.status();

  // Posthoc audit against the same model.
  Rng prior_rng(67);
  for (int trial = 0; trial < 10; ++trial) {
    const linalg::Vector pi = testing::RandomProbability(m, prior_rng);
    JointCalculator calc(model->get(), pi);
    for (int t = 1; t <= result->released.length(); ++t) {
      const auto& step = result->steps[static_cast<size_t>(t - 1)];
      const lppm::PlanarLaplaceMechanism mech(grid, step.released_alpha);
      calc.Push(mech.emission().EmissionColumn(result->released.At(t)));
      EXPECT_LE(calc.LikelihoodRatio(), std::exp(epsilon) * (1 + 1e-6));
      EXPECT_GE(calc.LikelihoodRatio(), std::exp(-epsilon) * (1 - 1e-6));
    }
  }
}

TEST(AutomatonWorldTest, TimeVaryingScheduleMatchesEnumeration) {
  // Time-varying chains (Section III footnote 3) through the automaton
  // lifting: oracle computed by manual trajectory enumeration.
  Rng rng(69);
  const size_t m = 3;
  const auto chain_a = testing::RandomTransition(m, rng);
  const auto chain_b = testing::RandomTransition(m, rng);
  auto schedule = TransitionSchedule::Cyclic({chain_a, chain_b});
  ASSERT_TRUE(schedule.ok());
  const linalg::Vector pi = testing::RandomProbability(m, rng);
  const auto expr = testing::RandomBoolExpr(m, 3, 2, rng);
  auto model = AutomatonWorldModel::Create(*schedule, *expr);
  ASSERT_TRUE(model.ok());

  double oracle = 0.0;
  event::ForEachTrajectory(m, (*model)->event_end(), [&](const geo::Trajectory& traj) {
    if (!expr->Evaluate(traj)) return;
    double p = pi[static_cast<size_t>(traj.At(1))];
    for (int t = 2; t <= traj.length(); ++t) {
      p *= schedule->AtStep(t - 1)(static_cast<size_t>(traj.At(t - 1)),
                                   static_cast<size_t>(traj.At(t)));
    }
    oracle += p;
  });
  EXPECT_NEAR(EventPrior(**model, pi), oracle, 1e-12) << expr->ToString();
}

}  // namespace
}  // namespace priste::core
