// Case Study 2 walkthrough: PriSTE with δ-location set privacy (Algorithm 3).
// Shows the per-timestamp machinery — Markov prediction, δ-location set
// construction, restricted planar Laplace, posterior update — and compares
// utility against the unrestricted Algorithm 2 on the same trajectory.
//
// Build & run:  ./build/examples/delta_location_set_demo
#include <cstdio>
#include <memory>

#include "priste/core/priste_delta_loc.h"
#include "priste/core/priste_geo_ind.h"
#include "priste/eval/metrics.h"
#include "priste/event/presence.h"
#include "priste/hmm/forward_backward.h"
#include "priste/geo/gaussian_grid_model.h"
#include "priste/lppm/delta_location_set.h"

int main() {
  using namespace priste;
  Rng rng(5);

  const geo::Grid grid(8, 8, 1.0);
  const geo::GaussianGridModel mobility(grid, 0.8);  // strong local pattern
  const auto event = event::PresenceEvent::Make(grid.num_cells(), 1, 8,
                                                /*start=*/3, /*end=*/5);
  const linalg::Vector pi = linalg::Vector::UniformProbability(grid.num_cells());

  // Show how the δ-location set shrinks as the posterior sharpens.
  std::printf("delta-location-set sizes along a trajectory (delta = 0.2):\n");
  {
    const markov::TransitionMatrix transition = mobility.transition();
    linalg::Vector posterior = pi;
    Rng demo_rng(9);
    const markov::MarkovChain chain = mobility.ChainUniformStart();
    const geo::Trajectory truth(chain.Sample(6, demo_rng));
    for (int t = 1; t <= truth.length(); ++t) {
      const linalg::Vector predicted = transition.Propagate(posterior);
      const auto set = lppm::DeltaLocationSet(predicted, 0.2);
      if (!set.ok()) return 1;
      const lppm::DeltaRestrictedPlanarLaplace mech(grid, 0.5, *set);
      const int o = mech.Perturb(truth.At(t), demo_rng);
      const auto updated =
          hmm::PosteriorUpdate(predicted, mech.EmissionColumn(o));
      if (!updated.ok()) return 1;
      posterior = *updated;
      std::printf("  t=%d  |dX|=%3zu  released cell %d (true %d)\n", t,
                  set->Count(), o, truth.At(t));
    }
  }

  // Full Algorithm 3 vs Algorithm 2 on the same privacy target.
  core::PristeOptions options;
  options.epsilon = 0.8;
  options.initial_alpha = 0.5;

  const markov::MarkovChain chain = mobility.ChainUniformStart();
  Rng traj_rng(13);
  const geo::Trajectory truth(chain.Sample(8, traj_rng));

  const core::PristeGeoInd plain(grid, mobility.transition(), {event}, options);
  const core::PristeDeltaLoc restricted(grid, mobility.transition(), {event},
                                        /*delta=*/0.2, pi, options);
  Rng run_rng_a(21), run_rng_b(21);
  const auto run_plain = plain.Run(truth, run_rng_a);
  const auto run_restricted = restricted.Run(truth, run_rng_b);
  if (!run_plain.ok() || !run_restricted.ok()) {
    std::printf("run failed\n");
    return 1;
  }

  std::printf("\n%28s  %12s  %12s\n", "", "mean budget", "euclid (km)");
  std::printf("%28s  %12.4f  %12.3f\n", "Algorithm 2 (geo-ind)",
              eval::MeanReleasedAlpha(*run_plain),
              eval::MeanEuclideanErrorKm(truth, *run_plain, grid));
  std::printf("%28s  %12.4f  %12.3f\n", "Algorithm 3 (delta-loc-set)",
              eval::MeanReleasedAlpha(*run_restricted),
              eval::MeanEuclideanErrorKm(truth, *run_restricted, grid));
  std::printf(
      "\nReading: the restricted mechanism often needs a smaller certified\n"
      "budget (its metric is weaker under temporal correlation, Fig. 10) but\n"
      "keeps the released cells close to the truth because the output domain\n"
      "is confined to the plausible region (Fig. 12's utility effect).\n");
  return 0;
}
