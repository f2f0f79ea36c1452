#include "priste/core/priste_delta_loc.h"

#include <cmath>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

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
