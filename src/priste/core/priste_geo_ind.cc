#include "priste/core/priste_geo_ind.h"

#include "priste/common/metrics.h"
#include "priste/common/strings.h"
#include "priste/common/timer.h"
#include "priste/core/release_step.h"

namespace priste::core {

namespace {

std::vector<std::shared_ptr<const LiftedEventModel>> BuildTwoWorldModels(
    const markov::TransitionMatrix& chain,
    const std::vector<event::EventPtr>& events) {
  std::vector<std::shared_ptr<const LiftedEventModel>> models;
  models.reserve(events.size());
  for (const auto& ev : events) {
    PRISTE_CHECK(ev != nullptr);
    models.push_back(std::make_shared<TwoWorldModel>(chain, ev));
  }
  return models;
}

}  // namespace

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

std::unique_ptr<lppm::Lppm> PristeGeoInd::MechanismFor(double alpha) const {
  return family_->Instantiate(alpha);
}

Result<RunResult> PristeGeoInd::Run(const geo::Trajectory& true_trajectory,
                                    Rng& rng) const {
  PRISTE_TRY_VOID(ValidateRunInput(grid_, models_, true_trajectory));
  const int T = true_trajectory.length();

  Timer run_timer;
  RunResult result;
  result.steps.reserve(static_cast<size_t>(T));
  std::vector<int> released;
  released.reserve(static_cast<size_t>(T));

  // The release-step engine owns the per-model quantifiers and the
  // incremental Theorem-vector state for this run.
  std::vector<const LiftedEventModel*> raw_models;
  raw_models.reserve(models_.size());
  for (const auto& model : models_) raw_models.push_back(model.get());
  ReleaseStepContext context(std::move(raw_models), &solver_,
                             options_.normalize_emissions, options_.release);
  // Geo-ind emission columns are dense; the dense-prefix row family engages
  // once the horizon amortizes it (T ≥ 2m).
  context.SetHorizonHint(T);

  static Histogram& step_seconds =
      MetricsRegistry::Global().GetHistogram("release.step_seconds");
  static Counter& halvings_counter =
      MetricsRegistry::Global().GetCounter("release.budget_halvings");

  for (int t = 1; t <= T; ++t) {
    const Timer step_timer;
    const int true_cell = true_trajectory.At(t);
    PRISTE_DCHECK(grid_.ContainsCell(true_cell));  // validated in the prelude

    StepRecord step;
    double alpha = options_.initial_alpha;

    for (;;) {
      if (alpha < options_.min_alpha) {
        // Uniform release: α = 0 reveals nothing, and rescaling (b̄, c̄) by
        // 1/m preserves the previously-certified condition signs.
        const auto mech = MechanismFor(0.0);
        const int o = mech->Perturb(true_cell, rng);
        context.Commit(mech->emission().EmissionColumn(o));
        released.push_back(o);
        step.released_alpha = 0.0;
        break;
      }

      const auto mech = MechanismFor(alpha);
      const int o = mech->Perturb(true_cell, rng);
      const linalg::Vector column = mech->emission().EmissionColumn(o);
      const ReleaseCheckOutcome outcome = context.CheckCandidate(
          column, options_.epsilon, options_.qp_threshold_seconds);

      if (outcome.all_satisfied) {
        context.Commit(column);
        released.push_back(o);
        step.released_alpha = alpha;
        break;
      }
      if (outcome.timed_out) {
        // total_conservative counts affected timestamps (the paper's "# of
        // Conservative Release"), not individual retries.
        if (step.conservative_timeouts == 0) ++result.total_conservative;
        ++step.conservative_timeouts;
      }
      alpha *= options_.decay;
      ++step.halvings;
    }

    halvings_counter.Increment(step.halvings);
    step_seconds.Record(step_timer.ElapsedSeconds());
    result.steps.push_back(step);
  }

  result.released = geo::Trajectory(std::move(released));
  result.release_diagnostics = context.diagnostics();
  result.total_seconds = run_timer.ElapsedSeconds();
  return result;
}

}  // namespace priste::core
