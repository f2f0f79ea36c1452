#include "priste/core/priste_delta_loc.h"

#include "priste/common/metrics.h"
#include "priste/common/strings.h"
#include "priste/common/timer.h"
#include "priste/core/release_step.h"
#include "priste/hmm/forward_backward.h"
#include "priste/lppm/delta_location_set.h"

namespace priste::core {

PristeDeltaLoc::PristeDeltaLoc(geo::Grid grid, markov::TransitionMatrix chain,
                               std::vector<event::EventPtr> events, double delta,
                               linalg::Vector initial, PristeOptions options)
    : grid_(grid),
      chain_(std::move(chain)),
      events_(std::move(events)),
      delta_(delta),
      initial_(std::move(initial)),
      options_(options) {
  PRISTE_CHECK_MSG(!events_.empty(), "PristeDeltaLoc needs at least one event");
  PRISTE_CHECK(delta_ >= 0.0 && delta_ < 1.0);
  CheckPristeOptions(options_);
  PRISTE_CHECK(chain_.num_states() == grid_.num_cells());
  PRISTE_CHECK(initial_.size() == grid_.num_cells());
  models_.reserve(events_.size());
  for (const auto& ev : events_) {
    PRISTE_CHECK(ev->num_states() == grid_.num_cells());
    models_.push_back(std::make_shared<TwoWorldModel>(chain_, ev));
  }
}

Result<RunResult> PristeDeltaLoc::Run(const geo::Trajectory& true_trajectory,
                                      Rng& rng) const {
  PRISTE_TRY_VOID(ValidateRunInput(grid_, models_, true_trajectory));
  const int T = true_trajectory.length();

  Timer run_timer;
  RunResult result;
  result.steps.reserve(static_cast<size_t>(T));
  std::vector<int> released;
  released.reserve(static_cast<size_t>(T));
  linalg::Vector posterior = initial_;  // p⁺_0 = π

  // The release-step engine owns the per-model quantifiers and the
  // incremental Theorem-vector state for this run.
  std::vector<const LiftedEventModel*> raw_models;
  raw_models.reserve(models_.size());
  for (const auto& model : models_) raw_models.push_back(model.get());
  ReleaseStepContext context(std::move(raw_models), &solver_,
                             options_.normalize_emissions, options_.release);
  // δ-location-set columns are usually sparse, but a wide first ΔX still
  // benefits from the dense-prefix family on long runs (T ≥ 2m).
  context.SetHorizonHint(T);

  static Histogram& step_seconds =
      MetricsRegistry::Global().GetHistogram("release.step_seconds");
  static Counter& halvings_counter =
      MetricsRegistry::Global().GetCounter("release.budget_halvings");

  for (int t = 1; t <= T; ++t) {
    const Timer step_timer;
    const int true_cell = true_trajectory.At(t);
    PRISTE_DCHECK(grid_.ContainsCell(true_cell));  // validated in the prelude

    // Line 2: Markov prediction; line 3: δ-location set.
    const linalg::Vector predicted = chain_.Propagate(posterior);
    PRISTE_TRY(geo::Region location_set,
               lppm::DeltaLocationSet(predicted, delta_));

    StepRecord step;
    double alpha = options_.initial_alpha;
    linalg::Vector released_column;

    for (;;) {
      const double effective_alpha =
          alpha < options_.min_alpha ? 0.0 : alpha;
      const lppm::DeltaRestrictedPlanarLaplace mech(grid_, effective_alpha,
                                                    location_set);
      const int o = mech.Perturb(true_cell, rng);
      released_column = mech.EmissionColumn(o);

      if (effective_alpha == 0.0) {
        // The α → 0 anchor, committed unchecked: at α = 0 every row of the
        // ΔX-restricted mechanism is the same uniform distribution over ΔX,
        // so the emission column is constant and reveals nothing.
        context.Commit(released_column);
        released.push_back(o);
        step.released_alpha = 0.0;
        break;
      }

      const ReleaseCheckOutcome outcome = context.CheckCandidate(
          released_column, options_.epsilon, options_.qp_threshold_seconds);

      if (outcome.all_satisfied) {
        context.Commit(released_column);
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

    // Line 8 / Eq. (21): posterior update from the released observation.
    PRISTE_TRY(posterior, hmm::PosteriorUpdate(predicted, released_column));

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
