#ifndef PRISTE_CORE_PRISTE_H_
#define PRISTE_CORE_PRISTE_H_

#include <functional>
#include <memory>
#include <vector>

#include "priste/common/random.h"
#include "priste/common/status.h"
#include "priste/core/event_model.h"
#include "priste/core/qp_solver.h"
#include "priste/core/release_step.h"
#include "priste/event/event.h"
#include "priste/geo/grid.h"
#include "priste/geo/trajectory.h"
#include "priste/lppm/lppm.h"
#include "priste/markov/transition_matrix.h"

namespace priste::core {

/// Options shared by the PriSTE instantiations (Algorithm 1's framework
/// parameters plus the Section IV-C knobs).
struct PristeOptions {
  /// ε of ε-spatiotemporal event privacy (Eq. 1).
  double epsilon = 0.5;

  /// The underlying α-PLM's budget — Algorithm 2 restarts from this value at
  /// every timestamp.
  double initial_alpha = 0.2;

  /// Budget decay on a failed check (the paper's rate 1/2, line 19; the
  /// trade-off is studied by bench_ablation_decay). Must be in (0, 1).
  double decay = 0.5;

  /// Below this budget the algorithm releases with the uniform mechanism
  /// (α = 0), which always satisfies the conditions (Section IV-C's
  /// convergence argument), without checking it. Must be finite and > 0.
  double min_alpha = 1e-4;

  /// Conservative-release threshold (seconds) for each quadratic-program
  /// check; non-positive means unlimited. On timeout the location is *not*
  /// released and the budget is halved — privacy is never assumed.
  double qp_threshold_seconds = 1.0;

  /// Rescale emission columns for numerical stability (see PrivacyQuantifier).
  bool normalize_emissions = true;

  /// Ignored, like every QpSolver::Options field.
  QpSolver::Options qp;

  /// Release-step evaluation engine knobs (sparse-row budget).
  ReleaseStepOptions release;
};

/// The most candidates one timestamp's halving search may check: the 1,075
/// rungs of a decay-½ ladder from 1 down to the smallest positive double.
/// A decay just below 1 would otherwise check billions.
inline constexpr int kMaxBudgetRungs = 1075;

/// Per-timestamp outcome of a PriSTE run. steps[t − 1] belongs to timestamp
/// t; its released cell is RunResult::released.At(t).
struct StepRecord {
  /// The final PLM budget used for the released location (0 = uniform).
  double released_alpha = 0.0;
  /// Number of budget halvings at this timestamp.
  int halvings = 0;
  /// Number of QP timeouts (conservative non-releases) at this timestamp.
  int conservative_timeouts = 0;
};

/// Outcome of a full PriSTE run over a trajectory.
struct RunResult {
  std::vector<StepRecord> steps;
  geo::Trajectory released;
  /// Total conservative non-releases across the run (Table III's column).
  int total_conservative = 0;
  /// Wall-clock of the whole run, seconds.
  double total_seconds = 0.0;
  /// Release-step engine counters (which Theorem-vector path served checks).
  ReleaseStepDiagnostics release_diagnostics;
};

/// The options rule both PriSTE drivers' constructors check. Each error
/// names its field:
/// - ε finite and >= 0 (no release satisfies a negative bound, and NaN
///   compares false with every bound);
/// - decay in (0, 1) (at 1 a failing check halves forever);
/// - an initial budget that lppm::ValidateBudget accepts (a negative one
///   releases uniformly, and +∞ never decays to a budget a mechanism
///   accepts or a check passes, so the halving search would not end);
/// - min_alpha finite and > 0 (at 0 or below, or NaN, a failing check
///   halves α towards 0 without ever reaching the uniform anchor);
/// - at most kMaxBudgetRungs budgets initial_alpha·decay^k at or above
///   min_alpha.
/// PRISTE_NO_ABORT.
Result<void> ValidatePristeOptions(const PristeOptions& options);

/// One TwoWorldModel per event over `chain`, the models both drivers build
/// from events. Every event must be non-null (PRISTE_CHECK).
std::vector<std::shared_ptr<const LiftedEventModel>> BuildTwoWorldModels(
    const markov::TransitionMatrix& chain,
    const std::vector<event::EventPtr>& events);

/// Shared input-validation prelude of the PriSTE drivers' Run methods: the
/// trajectory must be non-empty, cover every protected event's window, and
/// visit only cells of `grid`. Annotated PRISTE_NO_ABORT (definition) — bad
/// serving input yields a typed Error, never a process abort; the drivers'
/// hot loops may then downgrade their per-step checks to PRISTE_DCHECK.
Result<void> ValidateRunInput(
    const geo::Grid& grid,
    const std::vector<std::shared_ptr<const LiftedEventModel>>& models,
    const geo::Trajectory& trajectory);

/// ValidateRunInput's window rule on its own: a trajectory of
/// `trajectory_length` timestamps must cover an event window ending at
/// `window_end`. A caller that builds the event after reading the
/// trajectory applies it first, because an event and its model keep state
/// per window timestamp. PRISTE_NO_ABORT, like ValidateRunInput.
Result<void> ValidateEventWindow(int trajectory_length, int window_end);

/// What a PriSTE driver adds to the release loop RunReleaseLoop runs.
struct ReleaseHooks {
  /// The candidate mechanism at `budget`; budget 0 must be the family's
  /// uniform anchor. Required.
  std::function<std::unique_ptr<lppm::Lppm>(double budget)> mechanism_at;
  /// Runs first in each timestamp, before the search (Algorithm 3's Markov
  /// prediction and δ-location set). Optional.
  std::function<Result<void>()> before_search;
  /// Receives each timestamp's committed emission column (Algorithm 3's
  /// posterior update, Eq. 21). Optional.
  std::function<Result<void>(const linalg::Vector& column)> after_commit;
};

/// The budget-halving release loop of Algorithms 2 and 3, over input that
/// ValidateRunInput accepted. At each timestamp it draws a candidate from
/// `hooks.mechanism_at(α)`, reads it through Lppm::Perturb and
/// Lppm::EmissionColumn, and checks it against every model; a failed check
/// (or a QP timeout, a conservative non-release) multiplies α by
/// `options.decay` and draws again. Once α < `options.min_alpha` the budget
/// is 0, and that uniform release is committed unchecked: its emission
/// column is the same for every true cell, so it reveals nothing. The loop
/// owns the run's ReleaseStepContext (the trajectory length is its horizon
/// hint), records one `release.step_seconds` sample per timestamp (hooks
/// included) and each step's halvings in `release.budget_halvings`, and
/// returns the first error a hook returns.
Result<RunResult> RunReleaseLoop(
    const std::vector<std::shared_ptr<const LiftedEventModel>>& models,
    const QpSolver& solver, const PristeOptions& options,
    const geo::Trajectory& true_trajectory, Rng& rng,
    const ReleaseHooks& hooks);

}  // namespace priste::core

#endif  // PRISTE_CORE_PRISTE_H_
