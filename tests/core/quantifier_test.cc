#include "priste/core/quantifier.h"

#include "priste/core/two_world.h"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "priste/core/joint.h"
#include "priste/core/prior.h"
#include "priste/event/pattern.h"
#include "priste/event/presence.h"
#include "testing/test_util.h"

namespace priste::core {
namespace {

using event::PatternEvent;
using event::PresenceEvent;

// Builds a random event model over m states.
std::shared_ptr<TwoWorldModel> RandomModel(size_t m, bool presence, int start,
                                           int window, Rng& rng) {
  std::vector<geo::Region> regions;
  for (int i = 0; i < window; ++i) regions.push_back(testing::RandomRegion(m, rng));
  event::EventPtr ev;
  if (presence) {
    ev = std::make_shared<PresenceEvent>(regions, start);
  } else {
    ev = std::make_shared<PatternEvent>(regions, start);
  }
  return std::make_shared<TwoWorldModel>(testing::RandomTransition(m, rng), ev);
}

// Core semantic test: for a *fixed probability prior* the sign of the
// Theorem IV.1 conditions must agree with the direct likelihood-ratio
// definition of ε-spatiotemporal event privacy (Eq. 1):
//   Condition15 <= 0  ⟺  Pr(o|E) <= e^ε·Pr(o|¬E)
//   Condition16 <= 0  ⟺  Pr(o|¬E) <= e^ε·Pr(o|E)
class TheoremSemanticsTest : public ::testing::TestWithParam<int> {};

TEST_P(TheoremSemanticsTest, ConditionsMatchDirectRatios) {
  Rng rng(9000 + GetParam());
  const size_t m = 3;
  const bool presence = GetParam() % 2 == 0;
  const int start = 1 + GetParam() % 3;
  const int window = 1 + GetParam() % 2;
  const auto model = RandomModel(m, presence, start, window, rng);
  const linalg::Vector pi = testing::RandomProbability(m, rng);
  // Raw columns (no normalization) so values are exact probabilities.
  const PrivacyQuantifier quantifier(model.get(), /*normalize_emissions=*/false);

  JointCalculator calc(model.get(), pi);
  std::vector<linalg::Vector> emissions;
  const int horizon = model->event_end() + 2;
  for (int t = 1; t <= horizon; ++t) {
    emissions.push_back(testing::RandomEmissionColumn(m, rng));
    calc.Push(emissions.back());
    const TheoremVectors v = quantifier.ComputeVectors(emissions);

    // Cross-check the contractions against the joint calculator.
    EXPECT_NEAR(pi.Dot(v.a_bar), EventPrior(*model, pi), 1e-12);
    EXPECT_NEAR(pi.Dot(v.b_bar), calc.JointEvent(), 1e-12) << "t=" << t;
    EXPECT_NEAR(pi.Dot(v.c_bar), calc.Marginal(), 1e-12) << "t=" << t;

    const double prior = EventPrior(*model, pi);
    if (prior <= 0.0 || prior >= 1.0) continue;
    const double given_e = calc.JointEvent() / prior;
    const double given_not = calc.JointNotEvent() / (1.0 - prior);
    for (const double epsilon : {0.05, 0.5, 2.0}) {
      const double e_eps = std::exp(epsilon);
      const bool direct15 = given_e <= e_eps * given_not + 1e-15;
      const bool direct16 = given_not <= e_eps * given_e + 1e-15;
      const double c15 = PrivacyQuantifier::Condition15(v, pi, epsilon);
      const double c16 = PrivacyQuantifier::Condition16(v, pi, epsilon);
      EXPECT_EQ(c15 <= 1e-12, direct15) << "t=" << t << " eps=" << epsilon;
      EXPECT_EQ(c16 <= 1e-12, direct16) << "t=" << t << " eps=" << epsilon;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Trials, TheoremSemanticsTest, ::testing::Range(0, 12));

TEST(QuantifierTest, NormalizationPreservesConditionSigns) {
  Rng rng(41);
  const size_t m = 3;
  const auto model = RandomModel(m, true, 2, 2, rng);
  const PrivacyQuantifier raw(model.get(), false);
  const PrivacyQuantifier normalized(model.get(), true);
  std::vector<linalg::Vector> emissions;
  for (int t = 1; t <= 5; ++t) {
    emissions.push_back(testing::RandomEmissionColumn(m, rng));
    const TheoremVectors vr = raw.ComputeVectors(emissions);
    const TheoremVectors vn = normalized.ComputeVectors(emissions);
    const linalg::Vector pi = testing::RandomProbability(m, rng);
    for (const double eps : {0.1, 1.0}) {
      EXPECT_EQ(PrivacyQuantifier::Condition15(vr, pi, eps) <= 0.0,
                PrivacyQuantifier::Condition15(vn, pi, eps) <= 0.0);
      EXPECT_EQ(PrivacyQuantifier::Condition16(vr, pi, eps) <= 0.0,
                PrivacyQuantifier::Condition16(vn, pi, eps) <= 0.0);
    }
    // (b̄, c̄) are jointly rescaled: the ratio field is identical.
    for (size_t i = 0; i < m; ++i) {
      if (vr.c_bar[i] > 1e-300 && vn.c_bar[i] > 1e-300) {
        EXPECT_NEAR(vr.b_bar[i] / vr.c_bar[i], vn.b_bar[i] / vn.c_bar[i], 1e-9);
      }
    }
  }
}

TEST(QuantifierTest, UniformEmissionsSatisfyAnyEpsilon) {
  // Uninformative observations leak nothing: the check must pass for every
  // prior even at tiny ε.
  Rng rng(43);
  const size_t m = 4;
  const auto model = RandomModel(m, true, 2, 2, rng);
  const PrivacyQuantifier quantifier(model.get());
  const std::vector<linalg::Vector> emissions(
      5, linalg::Vector(m, 1.0 / static_cast<double>(m)));
  const TheoremVectors v = quantifier.ComputeVectors(emissions);
  const QpSolver solver;
  const PrivacyCheckResult check =
      quantifier.CheckArbitraryPrior(v, 0.01, solver, Deadline::Infinite());
  EXPECT_FALSE(check.timed_out);
  EXPECT_TRUE(check.satisfied)
      << "max15=" << check.max_condition15 << " max16=" << check.max_condition16;
}

TEST(QuantifierTest, ExpiredDeadlineIsAConservativeFailure) {
  // The uninformative emissions above pass with time to search; with the
  // deadline already expired the check reports a timeout and certifies
  // nothing (Section IV-C's conservative release).
  Rng rng(43);
  const size_t m = 4;
  const auto model = RandomModel(m, true, 2, 2, rng);
  const PrivacyQuantifier quantifier(model.get());
  const std::vector<linalg::Vector> emissions(
      5, linalg::Vector(m, 1.0 / static_cast<double>(m)));
  const TheoremVectors v = quantifier.ComputeVectors(emissions);
  const QpSolver solver;
  const PrivacyCheckResult check =
      quantifier.CheckArbitraryPrior(v, 0.01, solver, Deadline::After(-1.0));
  EXPECT_TRUE(check.timed_out);
  EXPECT_FALSE(check.satisfied);
}

TEST(QuantifierTest, RevealingEmissionsViolateSmallEpsilon) {
  // An emission that pins the user inside the event region at an event
  // timestamp makes the event nearly certain — small ε must fail.
  Rng rng(45);
  const size_t m = 3;
  const auto ev = std::make_shared<PresenceEvent>(geo::Region(3, {0}), 2, 2);
  const auto model =
      std::make_shared<TwoWorldModel>(testing::RandomTransition(m, rng), ev);
  const PrivacyQuantifier quantifier(model.get());

  linalg::Vector pin0(m, 1e-6);
  pin0[0] = 1.0;
  const std::vector<linalg::Vector> emissions = {linalg::Vector::Ones(m), pin0};
  const TheoremVectors v = quantifier.ComputeVectors(emissions);
  const QpSolver solver;
  const PrivacyCheckResult check =
      quantifier.CheckArbitraryPrior(v, 0.1, solver, Deadline::Infinite());
  EXPECT_FALSE(check.satisfied);
  EXPECT_GT(std::max(check.max_condition15, check.max_condition16), 0.0);
}

TEST(QuantifierTest, ArbitraryPriorCheckImpliesEveryFixedPrior) {
  // When the QP certifies the conditions, spot-check many random priors.
  Rng rng(47);
  const size_t m = 3;
  const auto model = RandomModel(m, false, 2, 2, rng);
  const PrivacyQuantifier quantifier(model.get());
  std::vector<linalg::Vector> emissions;
  // Mild emissions: close to uniform.
  for (int t = 0; t < 4; ++t) {
    linalg::Vector e(m);
    for (size_t i = 0; i < m; ++i) e[i] = 1.0 + 0.05 * rng.NextDouble();
    emissions.push_back(e);
  }
  const TheoremVectors v = quantifier.ComputeVectors(emissions);
  const QpSolver solver;
  const double epsilon = 0.5;
  const PrivacyCheckResult check =
      quantifier.CheckArbitraryPrior(v, epsilon, solver, Deadline::Infinite());
  ASSERT_TRUE(check.satisfied);
  for (int trial = 0; trial < 200; ++trial) {
    const linalg::Vector pi = testing::RandomProbability(m, rng);
    EXPECT_TRUE(PrivacyQuantifier::CheckFixedPrior(v, pi, epsilon, 1e-9));
  }
}

// A sparse ring random walk (3 nonzeros per row) built twice: once with the
// CSR fast path, once force-dense. Every quantifier output must match.
markov::TransitionMatrix RingWalk(size_t m, bool allow_sparse, Rng& rng) {
  linalg::Matrix t(m, m);
  for (size_t s = 0; s < m; ++s) {
    const double stay = 0.2 + 0.6 * rng.NextDouble();
    const double left = (1.0 - stay) * rng.NextDouble();
    t(s, s) = stay;
    t(s, (s + m - 1) % m) = left;
    t(s, (s + 1) % m) = 1.0 - stay - left;
  }
  auto result = markov::TransitionMatrix::Create(std::move(t), 1e-6, allow_sparse);
  PRISTE_CHECK(result.ok());
  return std::move(result).value();
}

class SparseDenseEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(SparseDenseEquivalenceTest, QuantifierOutputsMatch) {
  // Both chains are numerically identical matrices; only the kernel path
  // differs (CSR blockwise vs dense sweep). ā, b̄, c̄ and both Theorem IV.1
  // conditions must agree to tight tolerance at every prefix length,
  // including past the event window (the Lemma III.3 regime).
  const size_t m = 18;  // ≥ kSparseMinStates so the CSR view kicks in
  Rng rng(7000 + GetParam());
  Rng rng_copy = rng;
  const markov::TransitionMatrix sparse_chain = RingWalk(m, true, rng);
  const markov::TransitionMatrix dense_chain = RingWalk(m, false, rng_copy);
  ASSERT_TRUE(sparse_chain.has_sparse());
  ASSERT_FALSE(dense_chain.has_sparse());

  const bool presence = GetParam() % 2 == 0;
  const int start = 2 + GetParam() % 2;
  std::vector<geo::Region> regions;
  for (int i = 0; i < 2; ++i) regions.push_back(testing::RandomRegion(m, rng));
  event::EventPtr ev;
  if (presence) {
    ev = std::make_shared<PresenceEvent>(regions, start);
  } else {
    ev = std::make_shared<PatternEvent>(regions, start);
  }
  const TwoWorldModel sparse_model(sparse_chain, ev);
  const TwoWorldModel dense_model(dense_chain, ev);
  const PrivacyQuantifier sparse_quant(&sparse_model);
  const PrivacyQuantifier dense_quant(&dense_model);

  EXPECT_LT(sparse_model.PriorContraction()
                .Minus(dense_model.PriorContraction())
                .MaxAbs(),
            1e-12);

  std::vector<linalg::Vector> emissions;
  const int horizon = sparse_model.event_end() + 3;
  for (int t = 1; t <= horizon; ++t) {
    emissions.push_back(testing::RandomEmissionColumn(m, rng));
    const TheoremVectors vs = sparse_quant.ComputeVectors(emissions);
    const TheoremVectors vd = dense_quant.ComputeVectors(emissions);
    EXPECT_LT(vs.a_bar.Minus(vd.a_bar).MaxAbs(), 1e-12) << "t=" << t;
    EXPECT_LT(vs.b_bar.Minus(vd.b_bar).MaxAbs(), 1e-12) << "t=" << t;
    EXPECT_LT(vs.c_bar.Minus(vd.c_bar).MaxAbs(), 1e-12) << "t=" << t;
    const linalg::Vector pi = testing::RandomProbability(m, rng);
    for (const double eps : {0.1, 0.5, 2.0}) {
      EXPECT_NEAR(PrivacyQuantifier::Condition15(vs, pi, eps),
                  PrivacyQuantifier::Condition15(vd, pi, eps), 1e-9);
      EXPECT_NEAR(PrivacyQuantifier::Condition16(vs, pi, eps),
                  PrivacyQuantifier::Condition16(vd, pi, eps), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Trials, SparseDenseEquivalenceTest,
                         ::testing::Range(0, 6));

TEST(QuantifierTest, WorstPiIsReportedForViolations) {
  Rng rng(49);
  const size_t m = 3;
  const auto ev = std::make_shared<PresenceEvent>(geo::Region(3, {1}), 2, 2);
  const auto model =
      std::make_shared<TwoWorldModel>(testing::RandomTransition(m, rng), ev);
  const PrivacyQuantifier quantifier(model.get());
  linalg::Vector pin(m, 1e-6);
  pin[1] = 1.0;
  const std::vector<linalg::Vector> emissions = {linalg::Vector::Ones(m), pin};
  const TheoremVectors v = quantifier.ComputeVectors(emissions);
  const QpSolver solver;
  const PrivacyCheckResult check =
      quantifier.CheckArbitraryPrior(v, 0.05, solver, Deadline::Infinite());
  ASSERT_FALSE(check.satisfied);
  // The reported worst prior must actually violate a condition.
  const double worst = std::max(
      PrivacyQuantifier::Condition15(v, check.worst_pi, 0.05),
      PrivacyQuantifier::Condition16(v, check.worst_pi, 0.05));
  EXPECT_GT(worst, 0.0);
}

}  // namespace
}  // namespace priste::core
