#include "priste/markov/estimator.h"

#include "priste/common/strings.h"

namespace priste::markov {
namespace {

Result<void> ValidateStates(const std::vector<std::vector<int>>& trajectories,
                            size_t num_states) {
  if (num_states == 0) return err::InvalidArgument("num_states must be positive");
  for (const auto& traj : trajectories) {
    for (int s : traj) {
      if (s < 0 || static_cast<size_t>(s) >= num_states) {
        return err::OutOfRange(
            StrFormat("state %d outside [0, %zu)", s, num_states));
      }
    }
  }
  return {};
}

}  // namespace

Result<TransitionMatrix> EstimateTransitionMatrix(
    const std::vector<std::vector<int>>& trajectories, size_t num_states,
    double smoothing) {
  PRISTE_TRY_VOID(ValidateStates(trajectories, num_states));
  if (smoothing < 0.0) return err::InvalidArgument("smoothing must be >= 0");

  linalg::Matrix counts(num_states, num_states, smoothing);
  for (const auto& traj : trajectories) {
    for (size_t i = 1; i < traj.size(); ++i) {
      counts(static_cast<size_t>(traj[i - 1]), static_cast<size_t>(traj[i])) += 1.0;
    }
  }
  for (size_t r = 0; r < num_states; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < num_states; ++c) sum += counts(r, c);
    if (sum <= 0.0) {
      // No outgoing observations and no smoothing: fall back to uniform.
      for (size_t c = 0; c < num_states; ++c) {
        counts(r, c) = 1.0 / static_cast<double>(num_states);
      }
    } else {
      for (size_t c = 0; c < num_states; ++c) counts(r, c) /= sum;
    }
  }
  return TransitionMatrix::Create(std::move(counts));
}

}  // namespace priste::markov
