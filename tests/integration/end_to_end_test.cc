// Integration test exercising the full PriSTE pipeline the way the examples
// and benches do: synthetic mobility → trained Markov model → event
// definition → Algorithm 2 release → posthoc privacy audit.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "priste/core/joint.h"
#include "priste/core/prior.h"
#include "priste/core/priste_geo_ind.h"
#include "priste/event/pattern.h"
#include "priste/event/presence.h"
#include "priste/geo/commuter_model.h"
#include "priste/geo/gaussian_grid_model.h"
#include "priste/markov/estimator.h"
#include "testing/test_util.h"

namespace priste {
namespace {

TEST(EndToEndTest, CommuterPipelineProtectsPresence) {
  Rng rng(2024);
  const geo::Grid grid(6, 6, 1.0);
  const geo::CommuterTrajectoryModel commuter(grid, {}, rng);

  // Train the mobility model the way the paper trains on Geolife.
  const auto training = commuter.SampleTrainingSet(10, 3, rng);
  const auto chain =
      markov::EstimateTransitionMatrix(training, grid.num_cells(), 0.01);
  ASSERT_TRUE(chain.ok());

  // Protect "was near home during timestamps 2..4".
  geo::Region home_area(grid.num_cells());
  const int home = commuter.home_cell();
  home_area.Add(home);
  for (int dc = -1; dc <= 1; ++dc) {
    for (int dr = -1; dr <= 1; ++dr) {
      const int c = grid.ColOf(home) + dc;
      const int r = grid.RowOf(home) + dr;
      if (grid.Contains(c, r)) home_area.Add(grid.CellOf(c, r));
    }
  }
  const auto ev = std::make_shared<event::PresenceEvent>(home_area, 2, 4);

  core::PristeOptions options;
  options.epsilon = 0.7;
  options.initial_alpha = 0.5;

  const core::PristeGeoInd priste(grid, *chain, {ev}, options);
  const markov::MarkovChain mc(*chain,
                               linalg::Vector::UniformProbability(grid.num_cells()));
  const geo::Trajectory truth(mc.Sample(8, rng));
  const auto result = priste.Run(truth, rng);
  ASSERT_TRUE(result.ok()) << result.status();

  // Audit: bound must hold for random attacker priors.
  const core::TwoWorldModel model(*chain, ev);
  for (int trial = 0; trial < 10; ++trial) {
    const linalg::Vector pi =
        testing::RandomProbability(grid.num_cells(), rng);
    core::JointCalculator calc(&model, pi);
    for (int t = 1; t <= result->released.length(); ++t) {
      const lppm::PlanarLaplaceMechanism mech(
          grid, result->steps[static_cast<size_t>(t - 1)].released_alpha);
      calc.Push(mech.emission().EmissionColumn(result->released.At(t)));
      EXPECT_LE(calc.LikelihoodRatio(), std::exp(options.epsilon) * (1 + 1e-6));
      EXPECT_GE(calc.LikelihoodRatio(), std::exp(-options.epsilon) * (1 - 1e-6));
    }
  }
}

TEST(EndToEndTest, PatternOverGaussianGrid) {
  Rng rng(99);
  const geo::Grid grid(5, 5, 1.0);
  const geo::GaussianGridModel model(grid, 1.0);

  // A commute-like PATTERN: left edge at t=2, middle at t=3.
  std::vector<geo::Region> regions;
  geo::Region left(25), middle(25);
  for (int r = 0; r < 5; ++r) {
    left.Add(grid.CellOf(0, r));
    middle.Add(grid.CellOf(2, r));
  }
  regions.push_back(left);
  regions.push_back(middle);
  const auto ev = std::make_shared<event::PatternEvent>(regions, 2);

  core::PristeOptions options;
  options.epsilon = 0.5;
  options.initial_alpha = 0.4;

  const core::PristeGeoInd priste(grid, model.transition(), {ev}, options);
  const markov::MarkovChain mc = model.ChainUniformStart();
  const geo::Trajectory truth(mc.Sample(6, rng));
  const auto result = priste.Run(truth, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->released.length(), 6);

  // Prior sanity for reporting.
  const core::TwoWorldModel two_world(model.transition(), ev);
  const double prior =
      core::EventPrior(two_world, linalg::Vector::UniformProbability(25));
  EXPECT_GT(prior, 0.0);
  EXPECT_LT(prior, 1.0);
}

}  // namespace
}  // namespace priste
