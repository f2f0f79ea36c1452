#include "priste/geo/gaussian_grid_model.h"

#include <cmath>

#include "priste/common/check.h"

namespace priste::geo {
namespace {

double ValidateSigma(double sigma) {
  // Runs from the member-init list, so an invalid scale fails before the
  // O(m²) kernel build (transition_ is initialized after sigma_). `>` also
  // rejects NaN.
  PRISTE_CHECK_MSG(sigma > 0.0, "Gaussian kernel sigma must be > 0");
  return sigma;
}

markov::TransitionMatrix BuildTransition(const Grid& grid, double sigma) {
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
      sigma_(ValidateSigma(sigma)),
      transition_(BuildTransition(grid, sigma_)) {}

markov::MarkovChain GaussianGridModel::ChainUniformStart() const {
  return markov::MarkovChain(transition_,
                             linalg::Vector::UniformProbability(grid_.num_cells()));
}

Trajectory GaussianGridModel::SampleTrajectory(int length, Rng& rng) const {
  return Trajectory(ChainUniformStart().Sample(length, rng));
}

}  // namespace priste::geo
