#include "priste/core/priste.h"

#include <cmath>

#include "priste/common/check.h"
#include "priste/common/strings.h"
#include "priste/common/thread_annotations.h"

namespace priste::core {

void CheckPristeOptions(const PristeOptions& options) {
  PRISTE_CHECK(std::isfinite(options.epsilon) && options.epsilon >= 0.0);
  PRISTE_CHECK(options.decay > 0.0 && options.decay < 1.0);
  PRISTE_CHECK(std::isfinite(options.initial_alpha) &&
               options.initial_alpha >= 0.0);
}

PRISTE_NO_ABORT
Result<void> ValidateRunInput(
    const geo::Grid& grid,
    const std::vector<std::shared_ptr<const LiftedEventModel>>& models,
    const geo::Trajectory& trajectory) {
  const int T = trajectory.length();
  if (T < 1) return err::InvalidArgument("empty trajectory");
  for (const auto& model : models) {
    if (model->event_end() > T) {
      return err::InvalidArgument(StrFormat(
          "trajectory length %d does not cover event window ending at %d", T,
          model->event_end()));
    }
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

}  // namespace priste::core
