#include "priste/geo/gaussian_grid_model.h"

#include <cmath>

#include "priste/common/check.h"
#include "priste/common/thread_annotations.h"

namespace priste::geo {

PRISTE_NO_ABORT
Result<void> ValidateSigma(double sigma) {
  if (!(sigma > 0.0)) {  // `>` also refuses NaN
    return err::InvalidArgument("Gaussian kernel sigma must be > 0");
  }
  return {};
}

namespace {

markov::TransitionMatrix BuildTransition(const Grid& grid, double sigma) {
  // The constructor's check, before the O(m²) kernel build.
  PRISTE_CHECK_OK(ValidateSigma(sigma));
  const size_t m = grid.num_cells();
  linalg::Matrix t(m, m);
  const double inv_two_sigma_sq = 1.0 / (2.0 * sigma * sigma);
  for (size_t a = 0; a < m; ++a) {
    const int ax = grid.ColOf(static_cast<int>(a));
    const int ay = grid.RowOf(static_cast<int>(a));
    double sum = 0.0;
    for (size_t b = 0; b < m; ++b) {
      const double dx = ax - grid.ColOf(static_cast<int>(b));
      const double dy = ay - grid.RowOf(static_cast<int>(b));
      const double d2 = dx * dx + dy * dy;
      // The diagonal weight is exp(-0) = 1, spelled out: for a tiny σ, 2σ²
      // underflows to 0, the scale is +inf, and 0 * inf would be NaN.
      const double w = d2 == 0.0 ? 1.0 : std::exp(-d2 * inv_two_sigma_sq);
      t(a, b) = w;
      sum += w;
    }
    for (size_t b = 0; b < m; ++b) t(a, b) /= sum;
  }
  auto result = markov::TransitionMatrix::Create(std::move(t));
  PRISTE_CHECK_MSG(result.ok(), "Gaussian kernel produced an invalid chain");
  return std::move(result).value();
}

}  // namespace

GaussianGridModel::GaussianGridModel(Grid grid, double sigma)
    : grid_(grid),
      sigma_(sigma),
      transition_(BuildTransition(grid, sigma_)) {}

markov::MarkovChain GaussianGridModel::ChainUniformStart() const {
  return markov::MarkovChain(transition_,
                             linalg::Vector::UniformProbability(grid_.num_cells()));
}

Trajectory GaussianGridModel::SampleTrajectory(int length, Rng& rng) const {
  return Trajectory(ChainUniformStart().Sample(length, rng));
}

}  // namespace priste::geo
