// Quickstart: protect a PRESENCE event ("visited the clinic area between
// timestamps 3 and 5") while sharing perturbed locations with an LBS.
//
//   1. model the map as a grid and the user's mobility as a Markov chain;
//   2. define the spatiotemporal event to protect;
//   3. run PriSTE with Geo-indistinguishability (Algorithm 2);
//   4. audit the released sequence against the ε guarantee.
//
// Build & run:  ./build/examples/quickstart
#include <cmath>
#include <cstdio>
#include <memory>

#include "priste/core/joint.h"
#include "priste/core/prior.h"
#include "priste/core/priste_geo_ind.h"
#include "priste/event/presence.h"
#include "priste/geo/gaussian_grid_model.h"

int main() {
  using namespace priste;

  // --- 1. Map and mobility model. ------------------------------------
  // A 10x10 city grid with 1 km cells; the user mostly moves to nearby
  // cells (Gaussian transition kernel, sigma = 1 cell).
  const geo::Grid grid(10, 10, 1.0);
  const geo::GaussianGridModel mobility(grid, 1.0);
  Rng rng(7);

  // --- 2. The secret: a spatiotemporal event. ------------------------
  // "The user visited the clinic area (a 2x2 block) at ANY time in
  // timestamps 3..5" — a PRESENCE event (Definition II.2).
  geo::Region clinic(grid.num_cells());
  for (int col = 4; col <= 5; ++col) {
    for (int row = 4; row <= 5; ++row) clinic.Add(grid.CellOf(col, row));
  }
  const auto event =
      std::make_shared<event::PresenceEvent>(clinic, /*start=*/3, /*end=*/5);
  std::printf("Protecting %s\n", event->ToString().c_str());

  // --- 3. PriSTE with Geo-indistinguishability. ----------------------
  core::PristeOptions options;
  options.epsilon = 0.5;        // ε-spatiotemporal event privacy
  options.initial_alpha = 0.6;  // α of the underlying planar Laplace LPPM
  const core::PristeGeoInd priste(grid, mobility.transition(), {event}, options);

  const markov::MarkovChain chain = mobility.ChainUniformStart();
  const geo::Trajectory truth(chain.Sample(/*length=*/8, rng));
  const auto result = priste.Run(truth, rng);
  if (!result.ok()) {
    std::printf("run failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("\n t | true cell | released | final alpha | halvings\n");
  for (int t = 1; t <= result->released.length(); ++t) {
    const auto& step = result->steps[static_cast<size_t>(t - 1)];
    std::printf("%2d | %9d | %8d | %11.4f | %d\n", t, truth.At(t),
                result->released.At(t), step.released_alpha, step.halvings);
  }

  // --- 4. Posthoc audit of the guarantee. ----------------------------
  // For the released observations, Pr(o|EVENT)/Pr(o|¬EVENT) must stay within
  // e^{±ε} — here checked under the uniform attacker prior.
  const core::TwoWorldModel model(mobility.transition(), event);
  const linalg::Vector pi = linalg::Vector::UniformProbability(grid.num_cells());
  core::JointCalculator audit(&model, pi);
  double worst = 0.0;
  for (int t = 1; t <= result->released.length(); ++t) {
    const auto& step = result->steps[static_cast<size_t>(t - 1)];
    const lppm::PlanarLaplaceMechanism mech(grid, step.released_alpha);
    audit.Push(mech.emission().EmissionColumn(result->released.At(t)));
    worst = std::max(worst, std::fabs(std::log(audit.LikelihoodRatio())));
  }
  std::printf("\nevent prior      : %.4f\n", core::EventPrior(model, pi));
  std::printf("worst |ln ratio| : %.4f (bound ε = %.2f)\n", worst,
              options.epsilon);
  std::printf("privacy bound    : %s\n",
              worst <= options.epsilon + 1e-9 ? "HOLDS" : "VIOLATED");
  return worst <= options.epsilon + 1e-9 ? 0 : 1;
}
