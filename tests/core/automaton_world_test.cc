#include "priste/core/automaton_world.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "priste/core/joint.h"
#include "priste/core/prior.h"
#include "priste/core/priste_geo_ind.h"
#include "priste/core/quantifier.h"
#include "priste/core/two_world.h"
#include "priste/event/enumeration.h"
#include "priste/event/presence.h"
#include "priste/geo/gaussian_grid_model.h"
#include "priste/linalg/ops.h"
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

// The dense lifted operator of step t → t+1: entry ((q, s), (q', s')) is
// M(s, s') when q' is the automaton's successor of q on s' at τ = t + 1
// (q itself outside the window), and 0 otherwise.
linalg::Matrix DenseLiftedOperator(const AutomatonWorldModel& model,
                                   const markov::TransitionMatrix& chain,
                                   int t) {
  const event::EventAutomaton& automaton = model.automaton();
  const size_t m = model.num_states();
  const int tau = t + 1;
  const bool in_window = tau >= automaton.start() && tau <= automaton.end();
  linalg::Matrix dense(model.lifted_size(), model.lifted_size());
  for (int q = 0; q < automaton.num_automaton_states(); ++q) {
    for (size_t s = 0; s < m; ++s) {
      for (size_t sp = 0; sp < m; ++sp) {
        const int qp =
            in_window ? automaton.Next(q, tau, static_cast<int>(sp)) : q;
        dense(static_cast<size_t>(q) * m + s,
              static_cast<size_t>(qp) * m + sp) = chain.matrix()(s, sp);
      }
    }
  }
  return dense;
}

// A lifted vector of random entries with about a third of its automaton
// slices zero, so the row kernel's empty-slice skip is taken too.
linalg::Vector RandomLiftedSlices(size_t m, size_t k, Rng& rng) {
  linalg::Vector v(k * m);
  for (size_t q = 0; q < k; ++q) {
    if (rng.NextDouble() < 0.3) continue;
    for (size_t s = 0; s < m; ++s) v[q * m + s] = rng.NextDouble();
  }
  return v;
}

TEST(AutomatonWorldTest, StepKernelsMatchDenseLiftedOperator) {
  // The row and column kernels step slice by slice and never form the
  // (k·m)² operator; here both are checked against products with it, at
  // every step from t = 1 to one past the window. Random expressions open
  // their window at t = 1..3, at small m, where the spans run inline, and at
  // m = 18, where they dispatch. Each pair step must also be bit-equal to
  // its two single steps.
  Rng rng(71);
  for (const size_t m : {3ul, 4ul, 5ul, 6ul, 7ul, 8ul, 18ul}) {
    const auto chain = testing::RandomTransition(m, rng);
    for (int start = 1; start <= 3; ++start) {
      // A predicate at `start` pins where the window opens.
      const auto opening =
          event::BoolExpr::Pred(start, static_cast<int>(rng.NextBelow(m)));
      const auto tree = testing::RandomBoolExpr(m, start + 2, /*depth=*/3,
                                                rng, /*min_t=*/start);
      const auto expr = rng.NextDouble() < 0.5
                            ? event::BoolExpr::Or(opening, tree)
                            : event::BoolExpr::And(opening, tree);
      const auto model = MustCreate(chain, *expr);
      ASSERT_EQ(model->event_start(), start) << expr->ToString();
      const size_t n = model->lifted_size();
      const size_t k = n / m;
      for (int t = 1; t <= model->event_end() + 1; ++t) {
        const linalg::Matrix dense = DenseLiftedOperator(*model, chain, t);
        const linalg::Vector v1 = RandomLiftedSlices(m, k, rng);
        const linalg::Vector v2 = RandomLiftedSlices(m, k, rng);
        EXPECT_LT(
            model->StepRow(v1, t).Minus(linalg::VecMat(v1, dense)).MaxAbs(),
            1e-12)
            << "m=" << m << " t=" << t << " " << expr->ToString();
        linalg::Vector s1(n), s2(n), o1(n), o2(n);
        model->StepColumnInto(v1, t, s1);
        model->StepColumnInto(v2, t, s2);
        EXPECT_LT(s1.Minus(linalg::MatVec(dense, v1)).MaxAbs(), 1e-12)
            << "m=" << m << " t=" << t << " " << expr->ToString();
        model->StepColumnPairInto(v1, v2, t, o1, o2);
        EXPECT_LT(o1.Minus(linalg::MatVec(dense, v1)).MaxAbs(), 1e-12)
            << "m=" << m << " t=" << t << " " << expr->ToString();
        EXPECT_LT(o2.Minus(linalg::MatVec(dense, v2)).MaxAbs(), 1e-12)
            << "m=" << m << " t=" << t << " " << expr->ToString();
        EXPECT_EQ(std::memcmp(o1.data(), s1.data(), n * sizeof(double)), 0)
            << "m=" << m << " t=" << t;
        EXPECT_EQ(std::memcmp(o2.data(), s2.data(), n * sizeof(double)), 0)
            << "m=" << m << " t=" << t;
      }
    }
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
