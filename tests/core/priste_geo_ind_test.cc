#include "priste/core/priste_geo_ind.h"

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "priste/common/metrics.h"
#include "priste/core/joint.h"
#include "priste/event/presence.h"
#include "priste/geo/gaussian_grid_model.h"
#include "testing/test_util.h"

namespace priste::core {
namespace {

using event::PresenceEvent;

struct Scenario {
  geo::Grid grid;
  markov::TransitionMatrix chain;
  std::vector<event::EventPtr> events;
};

Scenario SmallScenario(double sigma = 1.0) {
  const geo::Grid grid(4, 4, 1.0);
  const geo::GaussianGridModel model(grid, sigma);
  const auto ev = std::make_shared<PresenceEvent>(
      geo::Region(grid.num_cells(), {0, 1, 4, 5}), /*start=*/3, /*end=*/4);
  return Scenario{grid, model.transition(), {ev}};
}

PristeOptions FastOptions(double epsilon, double alpha) {
  PristeOptions options;
  options.epsilon = epsilon;
  options.initial_alpha = alpha;
  options.qp_threshold_seconds = 5.0;
  return options;
}

TEST(PristeGeoIndTest, RunProducesFullRelease) {
  const Scenario setup = SmallScenario();
  const PristeGeoInd priste(setup.grid, setup.chain, setup.events,
                            FastOptions(0.5, 0.3));
  Rng rng(3);
  const markov::MarkovChain chain(setup.chain,
                                  linalg::Vector::UniformProbability(16));
  const geo::Trajectory truth(chain.Sample(6, rng));
  const auto result = priste.Run(truth, rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->released.length(), 6);
  EXPECT_EQ(result->steps.size(), 6u);
  for (int t = 1; t <= result->released.length(); ++t) {
    const auto& step = result->steps[static_cast<size_t>(t - 1)];
    EXPECT_GE(result->released.At(t), 0);
    EXPECT_LT(result->released.At(t), 16);
    EXPECT_LE(step.released_alpha, 0.3 + 1e-12);
    EXPECT_GE(step.released_alpha, 0.0);
  }
}

TEST(PristeGeoIndTest, ReleasedSequenceSatisfiesPrivacyBound) {
  // The paper's core guarantee: for the released observation prefix and ANY
  // probability prior, Pr(o|EVENT) / Pr(o|¬EVENT) ∈ [e^-ε, e^ε] at every t.
  const Scenario setup = SmallScenario();
  const double epsilon = 0.8;
  const PristeOptions options = FastOptions(epsilon, 0.4);
  const PristeGeoInd priste(setup.grid, setup.chain, setup.events, options);
  Rng rng(5);
  const markov::MarkovChain chain(setup.chain,
                                  linalg::Vector::UniformProbability(16));
  const geo::Trajectory truth(chain.Sample(6, rng));
  const auto result = priste.Run(truth, rng);
  ASSERT_TRUE(result.ok());

  // Reconstruct the released emission columns from the step records.
  const TwoWorldModel model(setup.chain, setup.events[0]);
  Rng prior_rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const linalg::Vector pi = testing::RandomProbability(16, prior_rng);
    JointCalculator calc(&model, pi);
    for (int t = 1; t <= result->released.length(); ++t) {
      const auto& step = result->steps[static_cast<size_t>(t - 1)];
      const lppm::PlanarLaplaceMechanism mech(setup.grid, step.released_alpha);
      calc.Push(mech.emission().EmissionColumn(result->released.At(t)));
      const double ratio = calc.LikelihoodRatio();
      EXPECT_LE(ratio, std::exp(epsilon) * (1.0 + 1e-6))
          << "t=" << t << " trial=" << trial;
      EXPECT_GE(ratio, std::exp(-epsilon) * (1.0 - 1e-6))
          << "t=" << t << " trial=" << trial;
    }
  }
}

TEST(PristeGeoIndTest, TinyEpsilonForcesCalibration) {
  // At a very strict ε with a loose PLM, the budget must be reduced at least
  // somewhere around the event window.
  const Scenario setup = SmallScenario(/*sigma=*/0.7);
  const PristeGeoInd strict(setup.grid, setup.chain, setup.events,
                            FastOptions(0.02, 1.5));
  Rng rng(7);
  const markov::MarkovChain chain(setup.chain,
                                  linalg::Vector::UniformProbability(16));
  const geo::Trajectory truth(chain.Sample(5, rng));
  const auto result = strict.Run(truth, rng);
  ASSERT_TRUE(result.ok());
  int halvings = 0;
  for (const auto& step : result->steps) halvings += step.halvings;
  EXPECT_GT(halvings, 0);
}

TEST(PristeGeoIndTest, LooseEpsilonKeepsFullBudget) {
  const Scenario setup = SmallScenario();
  const PristeGeoInd loose(setup.grid, setup.chain, setup.events,
                           FastOptions(5.0, 0.2));
  Rng rng(9);
  const markov::MarkovChain chain(setup.chain,
                                  linalg::Vector::UniformProbability(16));
  const geo::Trajectory truth(chain.Sample(5, rng));
  const auto result = loose.Run(truth, rng);
  ASSERT_TRUE(result.ok());
  for (int t = 1; t <= result->released.length(); ++t) {
    const auto& step = result->steps[static_cast<size_t>(t - 1)];
    EXPECT_DOUBLE_EQ(step.released_alpha, 0.2) << "t=" << t;
  }
}

TEST(PristeGeoIndTest, MultipleEventsAllProtected) {
  const geo::Grid grid(4, 4, 1.0);
  const geo::GaussianGridModel model(grid, 1.0);
  const auto ev1 = std::make_shared<PresenceEvent>(
      geo::Region(16, {0, 1}), 2, 3);
  const auto ev2 = std::make_shared<PresenceEvent>(
      geo::Region(16, {10, 11}), 4, 5);
  const double epsilon = 0.6;
  const PristeGeoInd priste(grid, model.transition(), {ev1, ev2},
                            FastOptions(epsilon, 0.3));
  Rng rng(11);
  const markov::MarkovChain chain(model.transition(),
                                  linalg::Vector::UniformProbability(16));
  const geo::Trajectory truth(chain.Sample(6, rng));
  const auto result = priste.Run(truth, rng);
  ASSERT_TRUE(result.ok());

  Rng prior_rng(13);
  for (const auto& ev : {ev1, ev2}) {
    const TwoWorldModel event_model(model.transition(), ev);
    for (int trial = 0; trial < 10; ++trial) {
      const linalg::Vector pi = testing::RandomProbability(16, prior_rng);
      JointCalculator calc(&event_model, pi);
      for (int t = 1; t <= result->released.length(); ++t) {
        const auto& step = result->steps[static_cast<size_t>(t - 1)];
        const lppm::PlanarLaplaceMechanism mech(grid, step.released_alpha);
        calc.Push(mech.emission().EmissionColumn(result->released.At(t)));
        EXPECT_LE(calc.LikelihoodRatio(), std::exp(epsilon) * (1.0 + 1e-6));
        EXPECT_GE(calc.LikelihoodRatio(), std::exp(-epsilon) * (1.0 - 1e-6));
      }
    }
  }
}

TEST(PristeGeoIndTest, RejectsTooShortTrajectory) {
  const Scenario setup = SmallScenario();
  const PristeGeoInd priste(setup.grid, setup.chain, setup.events,
                            FastOptions(0.5, 0.3));
  Rng rng(15);
  const auto result = priste.Run(geo::Trajectory({0, 1}), rng);  // event ends at 4
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, StatusCode::kInvalidArgument);
  EXPECT_FALSE(priste.Run(geo::Trajectory(), rng).ok());
}

TEST(PristeGeoIndTest, ConservativeThresholdCountsTimeouts) {
  // An absurdly small threshold forces QP timeouts; the run must still
  // complete (via uniform fallback) and count conservative releases.
  Scenario setup = SmallScenario();
  PristeOptions options = FastOptions(0.3, 0.5);
  options.qp_threshold_seconds = 1e-9;
  const PristeGeoInd priste(setup.grid, setup.chain, setup.events, options);
  Rng rng(17);
  const markov::MarkovChain chain(setup.chain,
                                  linalg::Vector::UniformProbability(16));
  const geo::Trajectory truth(chain.Sample(5, rng));
  const auto result = priste.Run(truth, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->total_conservative, 0);
  // Everything falls to the uniform release.
  for (const auto& step : result->steps) {
    EXPECT_DOUBLE_EQ(step.released_alpha, 0.0);
  }
}

TEST(PristeGeoIndTest, ZeroInitialBudgetCommitsTheAnchorUnchecked) {
  // At initial_alpha = 0 every step starts below min_alpha: the loop
  // commits the uniform release at budget 0, with no check and no halving.
  const Scenario setup = SmallScenario();
  const PristeGeoInd priste(setup.grid, setup.chain, setup.events,
                            FastOptions(0.5, 0.0));
  const Histogram& checks =
      MetricsRegistry::Global().GetHistogram("release.check_seconds");
  const long checks_before = checks.count();
  Rng rng(19);
  const markov::MarkovChain chain(setup.chain,
                                  linalg::Vector::UniformProbability(16));
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

TEST(PristeGeoIndTest, RunRecordsOneStepSampleAndEveryHalving) {
  // release.step_seconds gains one sample per timestamp, and
  // release.budget_halvings gains the sum of the steps' halvings.
  const Scenario setup = SmallScenario(/*sigma=*/0.7);
  const PristeGeoInd strict(setup.grid, setup.chain, setup.events,
                            FastOptions(0.02, 1.5));
  const Counter& halvings =
      MetricsRegistry::Global().GetCounter("release.budget_halvings");
  const Histogram& steps =
      MetricsRegistry::Global().GetHistogram("release.step_seconds");
  const long halvings_before = halvings.value();
  const long steps_before = steps.count();
  Rng rng(7);
  const markov::MarkovChain chain(setup.chain,
                                  linalg::Vector::UniformProbability(16));
  const geo::Trajectory truth(chain.Sample(5, rng));
  const auto result = strict.Run(truth, rng);
  ASSERT_TRUE(result.ok());
  long sum = 0;
  for (const auto& step : result->steps) sum += step.halvings;
  EXPECT_GT(sum, 0);
  EXPECT_EQ(halvings.value() - halvings_before, sum);
  EXPECT_EQ(steps.count() - steps_before, 5);
}

TEST(PristeGeoIndTest, OptionsRuleNamesEachRefusedField) {
  const double inf = std::numeric_limits<double>::infinity();
  const auto refusal = [](const PristeOptions& options) {
    const Result<void> rule = ValidatePristeOptions(options);
    return rule.ok() ? std::string() : rule.error().message;
  };
  const auto with = [](auto field, double value) {
    PristeOptions options;
    options.*field = value;
    return options;
  };
  EXPECT_EQ(refusal(PristeOptions()), "");
  for (const auto& [options, field] : {
           std::pair{with(&PristeOptions::epsilon, -1.0), "epsilon"},
           std::pair{with(&PristeOptions::epsilon, inf), "epsilon"},
           std::pair{with(&PristeOptions::decay, 0.0), "decay"},
           std::pair{with(&PristeOptions::decay, 1.0), "decay"},
           std::pair{with(&PristeOptions::initial_alpha, -1.0), "initial_alpha"},
           std::pair{with(&PristeOptions::initial_alpha, inf), "initial_alpha"},
           std::pair{with(&PristeOptions::min_alpha, 0.0), "min_alpha"},
           std::pair{with(&PristeOptions::min_alpha, inf), "min_alpha"},
           // About 8e16 halvings from 0.2 down to 1e-4.
           std::pair{with(&PristeOptions::decay, std::nextafter(1.0, 0.0)),
                     "decay"},
       }) {
    EXPECT_EQ(refusal(options).rfind(field, 0), 0u) << refusal(options);
  }
  // A decay-½ ladder from 1 to the smallest positive double has exactly
  // kMaxBudgetRungs rungs; from 4 it has two more.
  PristeOptions longest;
  longest.initial_alpha = 1.0;
  longest.min_alpha = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(refusal(longest), "");
  longest.initial_alpha = 4.0;
  EXPECT_EQ(refusal(longest).rfind("decay", 0), 0u) << refusal(longest);
  // The edges of each range are accepted.
  for (const auto& options :
       {with(&PristeOptions::epsilon, 0.0),
        with(&PristeOptions::decay, 0.99),
        with(&PristeOptions::decay, std::numeric_limits<double>::denorm_min()),
        with(&PristeOptions::initial_alpha, 0.0),
        with(&PristeOptions::min_alpha,
             std::numeric_limits<double>::denorm_min())}) {
    EXPECT_EQ(refusal(options), "");
  }
}

TEST(PristeGeoIndTest, FailingChecksHalveDownToATinyMinAlpha) {
  // ε = 0 fails every check, so each step halves α = 0.5 until it drops
  // below min_alpha: 1,018 halvings at 3e-307. The planar Laplace build aborted
  // near α = 6.3e-307 on this map before it ran in 2^−k km units.
  const geo::Grid grid(4, 4, 1.0);
  const geo::GaussianGridModel model(grid, 1.0);
  const auto ev = std::make_shared<PresenceEvent>(
      geo::Region(grid.num_cells(), {0, 1, 4, 5}), /*start=*/2, /*end=*/3);
  PristeOptions options = FastOptions(0.0, 0.5);
  options.min_alpha = 3e-307;
  const PristeGeoInd priste(grid, model.transition(), {ev}, options);
  Rng rng(29);
  const auto result =
      priste.Run(geo::Trajectory(std::vector<int>{0, 5, 10}), rng);
  ASSERT_TRUE(result.ok()) << result.error();
  for (const StepRecord& step : result->steps) {
    EXPECT_EQ(step.halvings, 1018);
    EXPECT_EQ(step.released_alpha, 0.0);
  }
}

TEST(PristeGeoIndDeathTest, RejectsNonPositiveOrNonFiniteMinAlpha) {
  // At min_alpha <= 0 or NaN a failing check halves α towards 0 without
  // reaching the uniform anchor: a cloaking run never returned, and a
  // planar Laplace run aborted once α underflowed. Both families refuse it
  // at construction, and +∞ too.
  const Scenario setup = SmallScenario();
  const std::vector<std::shared_ptr<const LiftedEventModel>> models = {
      std::make_shared<TwoWorldModel>(setup.chain, setup.events[0])};
  const auto cloaking = std::make_shared<lppm::CloakingFamily>(setup.grid);
  for (const double min_alpha : {0.0, -1.0, std::nan(""),
                                 std::numeric_limits<double>::infinity()}) {
    PristeOptions options = FastOptions(0.0, 0.3);
    options.min_alpha = min_alpha;
    EXPECT_DEATH(PristeGeoInd(setup.grid, setup.chain, setup.events, options),
                 "min_alpha");
    EXPECT_DEATH(PristeGeoInd(setup.grid, models, options, cloaking),
                 "min_alpha");
  }
}

TEST(PristeGeoIndDeathTest, RejectsNegativeOrNanEpsilon) {
  // No release satisfies |ln LR| <= epsilon < 0, and NaN compares false
  // with every bound.
  const Scenario setup = SmallScenario();
  for (const double epsilon : {-1.0, std::nan("")}) {
    EXPECT_DEATH(PristeGeoInd(setup.grid, setup.chain, setup.events,
                              FastOptions(epsilon, 0.3)),
                 "epsilon");
  }
}

TEST(PristeGeoIndDeathTest, RejectsInfiniteInitialBudget) {
  // At +∞ the halving search never reaches a budget the planar Laplace
  // mechanism accepts, so construction must refuse it.
  const Scenario setup = SmallScenario();
  const double infinity = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(PristeGeoInd(setup.grid, setup.chain, setup.events,
                            FastOptions(0.5, infinity)),
               "initial_alpha");
}

}  // namespace
}  // namespace priste::core
