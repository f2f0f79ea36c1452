// Commuter scenario (the paper's motivating example): a user commutes
// between home and work every day; the secret is the commuting PATTERN
// "left the home area and was at the work area later in the morning" — an
// attacker who learns it can infer the home/work pair (Golle & Partridge).
//
// The pipeline mirrors the paper's Geolife evaluation:
//   trajectories → Markov training (R `markovchain` equivalent) →
//   event definition → PriSTE (Algorithm 2) → utility report.
//
// Build & run:  ./build/examples/commuter_privacy
#include <cmath>
#include <cstdio>
#include <memory>

#include "priste/core/joint.h"
#include "priste/core/priste_geo_ind.h"
#include "priste/event/pattern.h"
#include "priste/eval/metrics.h"
#include "priste/geo/commuter_model.h"
#include "priste/markov/estimator.h"

namespace {

priste::geo::Region Neighbourhood(const priste::geo::Grid& grid, int anchor) {
  priste::geo::Region region(grid.num_cells());
  for (int dc = -1; dc <= 1; ++dc) {
    for (int dr = -1; dr <= 1; ++dr) {
      const int col = grid.ColOf(anchor) + dc;
      const int row = grid.RowOf(anchor) + dr;
      if (grid.Contains(col, row)) region.Add(grid.CellOf(col, row));
    }
  }
  return region;
}

}  // namespace

int main() {
  using namespace priste;
  Rng rng(42);

  // --- Simulated GPS history and Markov training. --------------------
  const geo::Grid grid(8, 8, 1.0);
  const geo::CommuterTrajectoryModel commuter(grid, {}, rng);
  std::printf("home cell: %d, work cell: %d\n", commuter.home_cell(),
              commuter.work_cell());

  const auto history = commuter.SampleTrainingSet(/*count=*/20, /*days=*/4, rng);
  const auto chain =
      markov::EstimateTransitionMatrix(history, grid.num_cells(), 0.01);
  if (!chain.ok()) {
    std::printf("training failed: %s\n", chain.status().ToString().c_str());
    return 1;
  }

  // --- The commuting PATTERN secret. ---------------------------------
  // "Near home at t=2, near work at t=6" (Definition II.3; Fig. 1(e)).
  std::vector<geo::Region> regions;
  const geo::Region home_area = Neighbourhood(grid, commuter.home_cell());
  const geo::Region work_area = Neighbourhood(grid, commuter.work_cell());
  const geo::Region anywhere = home_area.Complement().Union(home_area);
  regions.push_back(home_area);   // t = 2
  regions.push_back(anywhere);    // t = 3 (no constraint)
  regions.push_back(anywhere);    // t = 4
  regions.push_back(anywhere);    // t = 5
  regions.push_back(work_area);   // t = 6
  const auto event = std::make_shared<event::PatternEvent>(regions, /*start=*/2);
  std::printf("protecting commuting pattern home@t2 -> work@t6\n");

  // --- PriSTE release. ------------------------------------------------
  core::PristeOptions options;
  options.epsilon = 0.8;
  options.initial_alpha = 0.7;
  const core::PristeGeoInd priste(grid, *chain, {event}, options);

  // One "morning" of real movement, sampled from the commuter simulator.
  const std::vector<int> day = commuter.SampleDays(1, rng).states();
  const geo::Trajectory truth(std::vector<int>(day.begin(), day.begin() + 10));
  const auto result = priste.Run(truth, rng);
  if (!result.ok()) {
    std::printf("run failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("\nmean released budget : %.4f (initial %.2f)\n",
              eval::MeanReleasedAlpha(*result), options.initial_alpha);
  std::printf("mean euclid error    : %.3f km\n",
              eval::MeanEuclideanErrorKm(truth, *result, grid));
  std::printf("budget halvings      : %d\n", eval::TotalHalvings(*result));

  // --- Audit under the uniform attacker prior. ------------------------
  const core::TwoWorldModel model(*chain, event);
  core::JointCalculator audit(&model,
                              linalg::Vector::UniformProbability(grid.num_cells()));
  double worst = 0.0;
  for (int t = 1; t <= result->released.length(); ++t) {
    const auto& step = result->steps[static_cast<size_t>(t - 1)];
    const lppm::PlanarLaplaceMechanism mech(grid, step.released_alpha);
    audit.Push(mech.emission().EmissionColumn(result->released.At(t)));
    worst = std::max(worst, std::fabs(std::log(audit.LikelihoodRatio())));
  }
  std::printf("worst |ln ratio|     : %.4f <= ε = %.2f : %s\n", worst,
              options.epsilon, worst <= options.epsilon + 1e-9 ? "OK" : "FAIL");
  return 0;
}
