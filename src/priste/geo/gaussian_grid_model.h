#ifndef PRISTE_GEO_GAUSSIAN_GRID_MODEL_H_
#define PRISTE_GEO_GAUSSIAN_GRID_MODEL_H_

#include "priste/common/random.h"
#include "priste/common/status.h"
#include "priste/geo/grid.h"
#include "priste/geo/trajectory.h"
#include "priste/markov/markov_chain.h"

namespace priste::geo {

/// The σ rule GaussianGridModel's constructor checks: σ > 0 (a σ whose 2σ²
/// underflows keeps every user in place). PRISTE_NO_ABORT.
Result<void> ValidateSigma(double sigma);

/// The paper's synthetic mobility model (Section V-A): on a w×h grid, the
/// transition probability from cell a to cell b is proportional to a
/// two-dimensional Gaussian kernel exp(-d(a,b)² / (2σ²)) of scale σ (in cell
/// units). A smaller σ concentrates mass on adjacent cells — a "more
/// significant" mobility pattern in the paper's wording (Fig. 13's σ sweep).
class GaussianGridModel {
 public:
  GaussianGridModel(Grid grid, double sigma);

  const Grid& grid() const { return grid_; }
  double sigma() const { return sigma_; }

  /// The Gaussian-kernel transition matrix (rows normalized).
  const markov::TransitionMatrix& transition() const { return transition_; }

  /// A chain with uniform initial distribution (the paper's default π).
  markov::MarkovChain ChainUniformStart() const;

  /// Samples a trajectory of `length` timestamps starting from π uniform.
  Trajectory SampleTrajectory(int length, Rng& rng) const;

 private:
  Grid grid_;
  double sigma_;
  markov::TransitionMatrix transition_;
};

}  // namespace priste::geo

#endif  // PRISTE_GEO_GAUSSIAN_GRID_MODEL_H_
