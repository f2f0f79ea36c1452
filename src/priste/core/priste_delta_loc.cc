#include "priste/core/priste_delta_loc.h"

#include "priste/hmm/forward_backward.h"
#include "priste/lppm/delta_location_set.h"

namespace priste::core {

PristeDeltaLoc::PristeDeltaLoc(geo::Grid grid, markov::TransitionMatrix chain,
                               std::vector<event::EventPtr> events, double delta,
                               linalg::Vector initial, PristeOptions options)
    : grid_(grid),
      chain_(std::move(chain)),
      delta_(delta),
      initial_(std::move(initial)),
      options_(options),
      models_(BuildTwoWorldModels(chain_, events)) {
  PRISTE_CHECK_MSG(!models_.empty(), "PristeDeltaLoc needs at least one event");
  PRISTE_CHECK(delta_ >= 0.0 && delta_ < 1.0);
  CheckPristeOptions(options_);
  PRISTE_CHECK(chain_.num_states() == grid_.num_cells());
  PRISTE_CHECK(initial_.size() == grid_.num_cells());
}

Result<RunResult> PristeDeltaLoc::Run(const geo::Trajectory& true_trajectory,
                                      Rng& rng) const {
  PRISTE_TRY_VOID(ValidateRunInput(grid_, models_, true_trajectory));

  linalg::Vector posterior = initial_;  // p⁺_0 = π
  linalg::Vector predicted;
  geo::Region location_set(grid_.num_cells());
  ReleaseHooks hooks;
  // Line 2: Markov prediction; line 3: δ-location set.
  hooks.before_search = [&]() -> Result<void> {
    predicted = chain_.Propagate(posterior);
    PRISTE_TRY(location_set, lppm::DeltaLocationSet(predicted, delta_));
    return {};
  };
  // Line 4: the α-PLM within ΔX_t.
  hooks.mechanism_at = [&](double budget) {
    return std::make_unique<lppm::DeltaRestrictedPlanarLaplace>(grid_, budget,
                                                                location_set);
  };
  // Line 8 / Eq. (21): posterior update from the released observation.
  hooks.after_commit = [&](const linalg::Vector& column) -> Result<void> {
    PRISTE_TRY(posterior, hmm::PosteriorUpdate(predicted, column));
    return {};
  };
  return RunReleaseLoop(models_, solver_, options_, true_trajectory, rng,
                        hooks);
}

}  // namespace priste::core
