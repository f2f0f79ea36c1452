#include "priste/core/priste.h"

#include <cmath>

#include "priste/common/check.h"
#include "priste/common/metrics.h"
#include "priste/common/strings.h"
#include "priste/common/thread_annotations.h"
#include "priste/common/timer.h"
#include "priste/core/two_world.h"

namespace priste::core {

void CheckPristeOptions(const PristeOptions& options) {
  PRISTE_CHECK(std::isfinite(options.epsilon) && options.epsilon >= 0.0);
  PRISTE_CHECK(options.decay > 0.0 && options.decay < 1.0);
  PRISTE_CHECK(std::isfinite(options.initial_alpha) &&
               options.initial_alpha >= 0.0);
  PRISTE_CHECK(std::isfinite(options.min_alpha) && options.min_alpha > 0.0);
}

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

PRISTE_NO_ABORT
Result<void> ValidateRunInput(
    const geo::Grid& grid,
    const std::vector<std::shared_ptr<const LiftedEventModel>>& models,
    const geo::Trajectory& trajectory) {
  const int T = trajectory.length();
  if (T < 1) return err::InvalidArgument("empty trajectory");
  for (const auto& model : models) {
    PRISTE_TRY_VOID(ValidateEventWindow(T, model->event_end()));
  }
  for (int t = 1; t <= T; ++t) {
    const int cell = trajectory.At(t);
    if (!grid.ContainsCell(cell)) {
      return err::OutOfRange(
          StrFormat("trajectory cell %d at t=%d outside the %zu-cell grid",
                    cell, t, grid.num_cells()));
    }
  }
  return {};
}

PRISTE_NO_ABORT
Result<void> ValidateEventWindow(int trajectory_length, int window_end) {
  if (window_end > trajectory_length) {
    return err::InvalidArgument(StrFormat(
        "trajectory length %d does not cover event window ending at %d",
        trajectory_length, window_end));
  }
  return {};
}

Result<RunResult> RunReleaseLoop(
    const std::vector<std::shared_ptr<const LiftedEventModel>>& models,
    const QpSolver& solver, const PristeOptions& options,
    const geo::Trajectory& true_trajectory, Rng& rng,
    const ReleaseHooks& hooks) {
  const int T = true_trajectory.length();
  const Timer run_timer;
  RunResult result;
  result.steps.reserve(static_cast<size_t>(T));
  std::vector<int> released;
  released.reserve(static_cast<size_t>(T));

  // The release-step engine owns the per-model quantifiers and the
  // incremental Theorem-vector state for this run. A dense first column
  // engages the dense-prefix rows once the horizon amortizes them (T ≥ 2m).
  std::vector<const LiftedEventModel*> raw_models;
  raw_models.reserve(models.size());
  for (const auto& model : models) raw_models.push_back(model.get());
  ReleaseStepContext context(std::move(raw_models), &solver,
                             options.normalize_emissions, options.release);
  context.SetHorizonHint(T);

  static Histogram& step_seconds =
      MetricsRegistry::Global().GetHistogram("release.step_seconds");
  static Counter& halvings_counter =
      MetricsRegistry::Global().GetCounter("release.budget_halvings");

  for (int t = 1; t <= T; ++t) {
    const Timer step_timer;
    if (hooks.before_search) PRISTE_TRY_VOID(hooks.before_search());

    StepRecord step;
    linalg::Vector column;
    for (double alpha = options.initial_alpha;; alpha *= options.decay) {
      // Budget 0 is the uniform anchor, committed without a check: its
      // column is constant, and scaling (b̄, c̄) by a constant keeps the
      // signs of the conditions certified so far.
      const double budget = alpha < options.min_alpha ? 0.0 : alpha;
      const std::unique_ptr<lppm::Lppm> mech = hooks.mechanism_at(budget);
      const int o = mech->Perturb(true_trajectory.At(t), rng);
      column = mech->EmissionColumn(o);
      if (budget > 0.0) {
        const ReleaseCheckOutcome outcome = context.CheckCandidate(
            column, options.epsilon, options.qp_threshold_seconds);
        if (!outcome.all_satisfied) {
          if (outcome.timed_out) {
            // total_conservative counts affected timestamps (the paper's "#
            // of Conservative Release"), not individual retries.
            if (step.conservative_timeouts == 0) ++result.total_conservative;
            ++step.conservative_timeouts;
          }
          ++step.halvings;
          continue;
        }
      }
      context.Commit(column);
      released.push_back(o);
      step.released_alpha = budget;
      break;
    }

    if (hooks.after_commit) PRISTE_TRY_VOID(hooks.after_commit(column));
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
