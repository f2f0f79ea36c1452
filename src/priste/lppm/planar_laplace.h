#ifndef PRISTE_LPPM_PLANAR_LAPLACE_H_
#define PRISTE_LPPM_PLANAR_LAPLACE_H_

#include <memory>
#include <string>

#include "priste/geo/grid.h"
#include "priste/lppm/emission_cache.h"
#include "priste/lppm/lppm.h"

namespace priste::lppm {

/// The α-Planar Laplace mechanism of Andrés et al. (CCS'13), the
/// state-of-the-art mechanism for α-geo-indistinguishability and the LPPM of
/// the paper's Case Study 1. The continuous mechanism adds 2D noise with
/// density (α²/2π)·e^{−α·d}; this class provides both:
///
///  * continuous planar-Laplace sampling (angle uniform, radius
///    Gamma(2, 1/α)) with boundary clamping onto the grid, for callers that
///    want the unquantized mechanism (SampleContinuous);
///  * the emission matrix E(i, o) = Pr(clamp(c_i + noise) ∈ cell o) — the
///    *exact* discretization of that sampler. Interior cells integrate the
///    density over the cell square; border cells additionally absorb the
///    clamped off-grid mass (their preimage under "sample, then clamp"
///    extends past the border to infinity). Because discretization is pure
///    post-processing of the α-geo-indistinguishable continuous mechanism,
///    the emission is α-geo-indistinguishable on the cell-center metric:
///    every audited ratio is bounded by e^{α·d(c_i, c_j)} pointwise under the
///    integral (verified by the geo_ind_audit tests and a chi-squared
///    sampler-vs-emission agreement test).
///
/// α is the paper's PLM privacy budget; smaller α = stronger location
/// privacy. The degenerate α = 0 is the uniform mechanism that releases no
/// information (Algorithm 2's convergence anchor).
class PlanarLaplaceMechanism : public Lppm {
 public:
  /// Requires a budget that ValidateBudget accepts; alpha == 0 yields the
  /// uniform emission.
  PlanarLaplaceMechanism(const geo::Grid& grid, double alpha);

  size_t num_states() const override { return grid_.num_cells(); }
  const hmm::EmissionMatrix& emission() const override { return *emission_; }
  std::string name() const override;

  double alpha() const { return alpha_; }
  const geo::Grid& grid() const { return grid_; }

  /// One draw of the continuous mechanism: true cell center + planar Laplace
  /// noise, clamped to the grid boundary. Its cell distribution IS the
  /// emission row (emission() is the exact discretization), so Perturb() and
  /// SampleContinuous() are identically distributed over cells.
  int SampleContinuous(int true_cell, Rng& rng) const;

 private:
  /// Checks the budget rule before any emission work; returns alpha.
  static double ValidateAlpha(double alpha);

  geo::Grid grid_;
  double alpha_;
  /// Ref-counted handle into the process-wide EmissionCache: every mechanism
  /// sharing (grid dims, cell size, α) shares ONE quadrature-built matrix,
  /// and the handle keeps it valid even if the cache evicts it.
  EmissionCache::Handle emission_;
};

}  // namespace priste::lppm

#endif  // PRISTE_LPPM_PLANAR_LAPLACE_H_
