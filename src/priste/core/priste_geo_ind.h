#ifndef PRISTE_CORE_PRISTE_GEO_IND_H_
#define PRISTE_CORE_PRISTE_GEO_IND_H_

#include <memory>
#include <vector>

#include "priste/common/status.h"
#include "priste/core/priste.h"
#include "priste/core/quantifier.h"
#include "priste/core/event_model.h"
#include "priste/core/two_world.h"
#include "priste/event/event.h"
#include "priste/geo/grid.h"
#include "priste/lppm/mechanism_family.h"
#include "priste/lppm/planar_laplace.h"
#include "priste/markov/transition_matrix.h"

namespace priste::core {

/// Algorithm 2 — PriSTE with Geo-indistinguishability: at each timestamp the
/// α-Planar-Laplace mechanism proposes a perturbed location; the
/// Quantification component (Theorem IV.1 + QP) checks ε-spatiotemporal
/// event privacy for every protected event under any attacker prior; on
/// failure (or QP timeout, Section IV-C) the PLM budget is multiplied by
/// `decay` and a fresh location is drawn, converging to the uniform release
/// at α = 0. Multiple events are protected simultaneously by requiring every
/// event's conditions to hold before releasing (the Fig. 9 workload).
class PristeGeoInd {
 public:
  /// `events` must be non-empty and match the grid's cell count.
  PristeGeoInd(geo::Grid grid, markov::TransitionMatrix chain,
               std::vector<event::EventPtr> events, PristeOptions options);

  /// Protects prebuilt lifted event models — e.g. AutomatonWorldModel
  /// instances for arbitrary Boolean events, or TwoWorldModel instances over
  /// time-varying schedules. Models must share the grid's cell count.
  /// `family` selects the calibratable mechanism (Section VI-A's pluggable
  /// LPPM); nullptr means the planar Laplace family.
  PristeGeoInd(geo::Grid grid,
               std::vector<std::shared_ptr<const LiftedEventModel>> models,
               PristeOptions options,
               std::shared_ptr<const lppm::MechanismFamily> family = nullptr);

  const PristeOptions& options() const { return options_; }
  const geo::Grid& grid() const { return grid_; }
  const lppm::MechanismFamily& family() const { return *family_; }

  /// Releases a perturbed location per timestamp of `true_trajectory`
  /// (length T >= every event's end). Bad input — an empty trajectory, one
  /// shorter than an event window, or out-of-grid cells — yields a typed
  /// Error from the PRISTE_NO_ABORT validation prelude, never an abort.
  /// Thread-safe: concurrent Run calls on one instance share only immutable
  /// state plus the process-wide emission cache, and each run's randomness
  /// comes only from its own `rng` — the parallel experiment driver relies
  /// on both.
  Result<RunResult> Run(const geo::Trajectory& true_trajectory, Rng& rng) const;

 private:
  geo::Grid grid_;
  PristeOptions options_;
  QpSolver solver_;
  std::vector<std::shared_ptr<const LiftedEventModel>> models_;
  std::shared_ptr<const lppm::MechanismFamily> family_;
};

}  // namespace priste::core

#endif  // PRISTE_CORE_PRISTE_GEO_IND_H_
