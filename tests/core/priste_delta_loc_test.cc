#include "priste/core/priste_delta_loc.h"

#include <cmath>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "priste/common/metrics.h"
#include "priste/core/joint.h"
#include "priste/event/presence.h"
#include "priste/geo/gaussian_grid_model.h"
#include "priste/hmm/forward_backward.h"
#include "priste/lppm/delta_location_set.h"
#include "testing/test_util.h"

namespace priste::core {
namespace {

using event::PresenceEvent;

PristeOptions FastOptions(double epsilon, double alpha) {
  PristeOptions options;
  options.epsilon = epsilon;
  options.initial_alpha = alpha;
  options.qp_threshold_seconds = 5.0;
  return options;
}

struct Scenario {
  geo::Grid grid{4, 4, 1.0};
  geo::GaussianGridModel model{geo::Grid(4, 4, 1.0), 1.0};
  event::EventPtr ev = std::make_shared<PresenceEvent>(
      geo::Region(16, {0, 1, 4, 5}), 3, 4);
  linalg::Vector pi = linalg::Vector::UniformProbability(16);
};

TEST(PristeDeltaLocTest, RunCompletes) {
  const Scenario s;
  const PristeDeltaLoc priste(s.grid, s.model.transition(), {s.ev}, 0.2, s.pi,
                              FastOptions(0.5, 0.3));
  Rng rng(3);
  const markov::MarkovChain chain(s.model.transition(), s.pi);
  const geo::Trajectory truth(chain.Sample(6, rng));
  const auto result = priste.Run(truth, rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->released.length(), 6);
}

TEST(PristeDeltaLocTest, ReleasesTrackDeltaLocationSets) {
  // Re-simulate the δ-location-set state machine from the step records and
  // verify every released cell was inside the timestamp's ΔX_t.
  const Scenario s;
  const double delta = 0.3;
  const PristeDeltaLoc priste(s.grid, s.model.transition(), {s.ev}, delta, s.pi,
                              FastOptions(0.8, 0.3));
  Rng rng(5);
  const markov::MarkovChain chain(s.model.transition(), s.pi);
  const geo::Trajectory truth(chain.Sample(6, rng));
  const auto result = priste.Run(truth, rng);
  ASSERT_TRUE(result.ok());

  linalg::Vector posterior = s.pi;
  for (int t = 1; t <= result->released.length(); ++t) {
    const auto& step = result->steps[static_cast<size_t>(t - 1)];
    const linalg::Vector predicted = markov::TransitionMatrix(s.model.transition())
                                         .Propagate(posterior);
    const auto set = lppm::DeltaLocationSet(predicted, delta);
    ASSERT_TRUE(set.ok());
    EXPECT_TRUE(set->Contains(result->released.At(t))) << "t=" << t;
    const lppm::DeltaRestrictedPlanarLaplace mech(s.grid, step.released_alpha, *set);
    const auto updated = hmm::PosteriorUpdate(
        predicted, mech.emission().EmissionColumn(result->released.At(t)));
    ASSERT_TRUE(updated.ok());
    posterior = *updated;
  }
}

TEST(PristeDeltaLocTest, ReleasedSequenceSatisfiesPrivacyBound) {
  const Scenario s;
  const double delta = 0.3;
  const double epsilon = 0.8;
  const PristeDeltaLoc priste(s.grid, s.model.transition(), {s.ev}, delta, s.pi,
                              FastOptions(epsilon, 0.3));
  Rng rng(7);
  const markov::MarkovChain chain(s.model.transition(), s.pi);
  const geo::Trajectory truth(chain.Sample(6, rng));
  const auto result = priste.Run(truth, rng);
  ASSERT_TRUE(result.ok());

  // Rebuild the released emission columns (deterministic re-simulation).
  std::vector<linalg::Vector> columns;
  linalg::Vector posterior = s.pi;
  const markov::TransitionMatrix transition = s.model.transition();
  for (int t = 1; t <= result->released.length(); ++t) {
    const auto& step = result->steps[static_cast<size_t>(t - 1)];
    const linalg::Vector predicted = transition.Propagate(posterior);
    const auto set = lppm::DeltaLocationSet(predicted, delta);
    ASSERT_TRUE(set.ok());
    const lppm::DeltaRestrictedPlanarLaplace mech(s.grid, step.released_alpha, *set);
    columns.push_back(mech.emission().EmissionColumn(result->released.At(t)));
    const auto updated = hmm::PosteriorUpdate(predicted, columns.back());
    ASSERT_TRUE(updated.ok());
    posterior = *updated;
  }

  const TwoWorldModel model(transition, s.ev);
  Rng prior_rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const linalg::Vector pi = testing::RandomProbability(16, prior_rng);
    JointCalculator calc(&model, pi);
    for (size_t i = 0; i < columns.size(); ++i) {
      calc.Push(columns[i]);
      // Uniform-over-ΔX fallbacks (α = 0) are released without a certified
      // check (Algorithm 3's anchor), so only assert on certified steps.
      if (result->steps[i].released_alpha > 0.0) {
        EXPECT_LE(calc.LikelihoodRatio(), std::exp(epsilon) * (1.0 + 1e-6))
            << "t=" << i + 1;
        EXPECT_GE(calc.LikelihoodRatio(), std::exp(-epsilon) * (1.0 - 1e-6))
            << "t=" << i + 1;
      }
    }
  }
}

TEST(PristeDeltaLocTest, SmallerDeltaGivesLargerSets) {
  const Scenario s;
  Rng rng(13);
  const linalg::Vector predicted =
      markov::TransitionMatrix(s.model.transition()).Propagate(s.pi);
  const auto tight = lppm::DeltaLocationSet(predicted, 0.05);
  const auto loose = lppm::DeltaLocationSet(predicted, 0.5);
  ASSERT_TRUE(tight.ok());
  ASSERT_TRUE(loose.ok());
  EXPECT_GE(tight->Count(), loose->Count());
}

TEST(PristeDeltaLocTest, RejectsShortTrajectory) {
  const Scenario s;
  const PristeDeltaLoc priste(s.grid, s.model.transition(), {s.ev}, 0.2, s.pi,
                              FastOptions(0.5, 0.3));
  Rng rng(15);
  EXPECT_FALSE(priste.Run(geo::Trajectory({0, 1}), rng).ok());
}

TEST(PristeDeltaLocTest, ZeroInitialBudgetCommitsTheAnchorUnchecked) {
  // At initial_alpha = 0 every step starts below min_alpha: the loop
  // commits the uniform release over ΔX_t at budget 0, with no check and no
  // halving.
  const Scenario s;
  const PristeDeltaLoc priste(s.grid, s.model.transition(), {s.ev}, 0.2, s.pi,
                              FastOptions(0.5, 0.0));
  const Histogram& checks =
      MetricsRegistry::Global().GetHistogram("release.check_seconds");
  const long checks_before = checks.count();
  Rng rng(19);
  const markov::MarkovChain chain(s.model.transition(), s.pi);
  const geo::Trajectory truth(chain.Sample(6, rng));
  const auto result = priste.Run(truth, rng);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->steps.size(), 6u);
  for (const auto& step : result->steps) {
    EXPECT_EQ(step.released_alpha, 0.0);
    EXPECT_EQ(step.halvings, 0);
    EXPECT_EQ(step.conservative_timeouts, 0);
  }
  const ReleaseStepDiagnostics& diagnostics = result->release_diagnostics;
  EXPECT_EQ(diagnostics.cached_checks + diagnostics.dense_prefix_checks +
                diagnostics.cold_checks + diagnostics.dense_fallbacks,
            0);
  EXPECT_EQ(checks.count(), checks_before);
}

TEST(PristeDeltaLocTest, ConservativeThresholdCountsTimeouts) {
  // An absurdly small threshold makes every check time out: each step
  // counts one conservative timestamp, halves once per timed-out check, and
  // falls to the budget-0 anchor.
  const Scenario s;
  PristeOptions options = FastOptions(0.3, 0.5);
  options.qp_threshold_seconds = 1e-9;
  const PristeDeltaLoc priste(s.grid, s.model.transition(), {s.ev}, 0.2, s.pi,
                              options);
  Rng rng(17);
  const markov::MarkovChain chain(s.model.transition(), s.pi);
  const geo::Trajectory truth(chain.Sample(5, rng));
  const auto result = priste.Run(truth, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_conservative, 5);
  for (const auto& step : result->steps) {
    EXPECT_EQ(step.released_alpha, 0.0);
    EXPECT_GT(step.halvings, 0);
    EXPECT_EQ(step.conservative_timeouts, step.halvings);
  }
}

TEST(PristeDeltaLocTest, RunRecordsOneStepSampleAndEveryHalving) {
  // release.step_seconds gains one sample per timestamp, and
  // release.budget_halvings gains the sum of the steps' halvings.
  const Scenario s;
  const PristeDeltaLoc strict(s.grid, s.model.transition(), {s.ev}, 0.2, s.pi,
                              FastOptions(0.02, 1.5));
  const Counter& halvings =
      MetricsRegistry::Global().GetCounter("release.budget_halvings");
  const Histogram& steps =
      MetricsRegistry::Global().GetHistogram("release.step_seconds");
  const long halvings_before = halvings.value();
  const long steps_before = steps.count();
  Rng rng(7);
  const markov::MarkovChain chain(s.model.transition(), s.pi);
  const geo::Trajectory truth(chain.Sample(6, rng));
  const auto result = strict.Run(truth, rng);
  ASSERT_TRUE(result.ok());
  long sum = 0;
  for (const auto& step : result->steps) sum += step.halvings;
  EXPECT_GT(sum, 0);
  EXPECT_EQ(halvings.value() - halvings_before, sum);
  EXPECT_EQ(steps.count() - steps_before, 6);
}

TEST(PristeDeltaLocDeathTest, RejectsNullEvent) {
  // The constructor read the null event's state count and died of SIGSEGV;
  // the model builder both drivers share checks it first.
  const Scenario s;
  EXPECT_DEATH(PristeDeltaLoc(s.grid, s.model.transition(), {nullptr}, 0.2,
                              s.pi, FastOptions(0.5, 0.3)),
               "ev != nullptr");
}

TEST(PristeDeltaLocDeathTest, RejectsNonPositiveOrNonFiniteMinAlpha) {
  // At min_alpha <= 0 or NaN a step whose checks keep failing halves α
  // through ~1,074 candidates before it underflows to the anchor.
  const Scenario s;
  for (const double min_alpha : {0.0, -1.0, std::nan(""),
                                 std::numeric_limits<double>::infinity()}) {
    PristeOptions options = FastOptions(0.0, 0.3);
    options.min_alpha = min_alpha;
    EXPECT_DEATH(PristeDeltaLoc(s.grid, s.model.transition(), {s.ev}, 0.2,
                                s.pi, options),
                 "min_alpha");
  }
}

TEST(PristeDeltaLocDeathTest, RejectsOptionsPristeGeoIndRejects) {
  // decay = 1 would halve forever on a failing check; a negative initial
  // budget would release uniformly at every step, and +∞ never halves to a
  // budget the mechanism accepts; no release satisfies |ln LR| <= epsilon
  // for a negative or NaN epsilon.
  const Scenario s;
  PristeOptions options = FastOptions(0.5, 0.3);
  options.decay = 1.0;
  EXPECT_DEATH(PristeDeltaLoc(s.grid, s.model.transition(), {s.ev}, 0.2, s.pi,
                              options),
               "decay");
  options.decay = 0.0;
  EXPECT_DEATH(PristeDeltaLoc(s.grid, s.model.transition(), {s.ev}, 0.2, s.pi,
                              options),
               "decay");
  for (const double initial_alpha :
       {-1.0, std::numeric_limits<double>::infinity()}) {
    EXPECT_DEATH(PristeDeltaLoc(s.grid, s.model.transition(), {s.ev}, 0.2,
                                s.pi, FastOptions(0.5, initial_alpha)),
                 "initial_alpha");
  }
  for (const double epsilon : {-1.0, std::nan("")}) {
    EXPECT_DEATH(PristeDeltaLoc(s.grid, s.model.transition(), {s.ev}, 0.2,
                                s.pi, FastOptions(epsilon, 0.3)),
                 "epsilon");
  }
}

}  // namespace
}  // namespace priste::core
