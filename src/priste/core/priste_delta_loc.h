#ifndef PRISTE_CORE_PRISTE_DELTA_LOC_H_
#define PRISTE_CORE_PRISTE_DELTA_LOC_H_

#include <memory>
#include <vector>

#include "priste/common/random.h"
#include "priste/common/status.h"
#include "priste/core/priste.h"
#include "priste/core/quantifier.h"
#include "priste/core/event_model.h"
#include "priste/core/two_world.h"
#include "priste/event/event.h"
#include "priste/geo/grid.h"
#include "priste/markov/transition_matrix.h"

namespace priste::core {

/// Algorithm 3 — PriSTE with δ-Location Set Privacy (Case Study 2): each
/// timestamp the Markov prediction p⁻_t = p⁺_{t−1}·M yields the δ-location
/// set ΔX_t; an α-PLM restricted to ΔX_t proposes the location; the
/// Theorem IV.1 check (with budget halving and conservative release) gates
/// the release; and the released observation updates the posterior p⁺_t via
/// Eq. (21). The initial p⁺_0 is π (uniform in the paper's experiments).
class PristeDeltaLoc {
 public:
  PristeDeltaLoc(geo::Grid grid, markov::TransitionMatrix chain,
                 std::vector<event::EventPtr> events, double delta,
                 linalg::Vector initial, PristeOptions options);

  const PristeOptions& options() const { return options_; }
  double delta() const { return delta_; }

  /// See PristeGeoInd::Run; additionally maintains the δ-location-set state.
  Result<RunResult> Run(const geo::Trajectory& true_trajectory, Rng& rng) const;

 private:
  geo::Grid grid_;
  markov::TransitionMatrix chain_;
  double delta_;
  linalg::Vector initial_;
  PristeOptions options_;
  QpSolver solver_;
  std::vector<std::shared_ptr<const LiftedEventModel>> models_;
};

}  // namespace priste::core

#endif  // PRISTE_CORE_PRISTE_DELTA_LOC_H_
