#include "priste/core/priste_geo_ind.h"

namespace priste::core {

PristeGeoInd::PristeGeoInd(geo::Grid grid, markov::TransitionMatrix chain,
                           std::vector<event::EventPtr> events,
                           PristeOptions options)
    : PristeGeoInd(grid, BuildTwoWorldModels(chain, events), options) {
  PRISTE_CHECK(chain.num_states() == grid.num_cells());
}

PristeGeoInd::PristeGeoInd(
    geo::Grid grid, std::vector<std::shared_ptr<const LiftedEventModel>> models,
    PristeOptions options, std::shared_ptr<const lppm::MechanismFamily> family)
    : grid_(grid),
      options_(options),
      models_(std::move(models)),
      family_(family != nullptr
                  ? std::move(family)
                  : std::make_shared<lppm::PlanarLaplaceFamily>(grid)) {
  PRISTE_CHECK_MSG(!models_.empty(), "PristeGeoInd needs at least one event");
  CheckPristeOptions(options_);
  PRISTE_CHECK(family_->num_states() == grid_.num_cells());
  for (const auto& model : models_) {
    PRISTE_CHECK(model != nullptr);
    PRISTE_CHECK(model->num_states() == grid_.num_cells());
  }
}

Result<RunResult> PristeGeoInd::Run(const geo::Trajectory& true_trajectory,
                                    Rng& rng) const {
  PRISTE_TRY_VOID(ValidateRunInput(grid_, models_, true_trajectory));
  ReleaseHooks hooks;
  hooks.mechanism_at = [this](double budget) {
    return family_->Instantiate(budget);
  };
  return RunReleaseLoop(models_, solver_, options_, true_trajectory, rng,
                        hooks);
}

}  // namespace priste::core
