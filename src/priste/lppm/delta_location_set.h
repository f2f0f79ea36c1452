#ifndef PRISTE_LPPM_DELTA_LOCATION_SET_H_
#define PRISTE_LPPM_DELTA_LOCATION_SET_H_

#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "priste/common/status.h"
#include "priste/geo/grid.h"
#include "priste/geo/region.h"
#include "priste/lppm/lppm.h"

namespace priste::lppm {

/// The δ rule DeltaLocationSet and PristeDeltaLoc check: δ in [0, 1).
/// PRISTE_NO_ABORT.
Result<void> ValidateDelta(double delta);

/// Constructs the δ-location set ΔX of Xiao & Xiong (CCS'15): the minimum
/// number of cells, taken in decreasing prior-probability order, whose prior
/// mass is at least 1 − δ. Requires `prior` to be a probability vector and
/// δ ∈ [0, 1).
Result<geo::Region> DeltaLocationSet(const linalg::Vector& prior, double delta);

/// The paper's Case Study 2 mechanism: an α-Planar-Laplace mechanism whose
/// output domain is restricted to a δ-location set ΔX_t (Algorithm 3, line 4,
/// "α-PLM within ΔX_t"). For each true cell i the output distribution is the
/// planar-Laplace kernel e^{−α·d(surrogate(i), o)} over o ∈ ΔX only,
/// renormalized; a true cell outside ΔX is first mapped to its nearest in-set
/// surrogate, following [9]'s surrogate treatment of "impossible" locations.
///
/// Row i depends only on its anchor (i itself, or the first nearest member),
/// so the m×m emission has at most |ΔX| distinct rows. The mechanism keeps
/// that compact form: the anchors, one weight per pair of per-axis
/// cell-centre offsets, and each member row's two normalizers. Perturb and
/// EmissionColumn read it directly; emission() expands the full matrix on
/// first use. All three agree bit for bit.
///
/// The restriction changes every timestamp (ΔX_t follows the Markov-predicted
/// prior p⁻_t), so instances are built per timestamp rather than reused.
class DeltaRestrictedPlanarLaplace : public Lppm {
 public:
  /// Requires a budget that ValidateBudget accepts and a non-empty
  /// `location_set` over the grid's cells; both are checked before any
  /// other work.
  DeltaRestrictedPlanarLaplace(const geo::Grid& grid, double alpha,
                               geo::Region location_set);

  size_t num_states() const override { return grid_.num_cells(); }
  /// Built from the compact form on the first call; safe to call from
  /// several threads at once.
  const hmm::EmissionMatrix& emission() const override;
  /// Samples from the |ΔX| member entries of `true_cell`'s row.
  int Perturb(int true_cell, Rng& rng) const override;
  std::string name() const override;

  /// The emission column p̃_o, bit-equal to emission().EmissionColumn(o)
  /// without building the matrix.
  linalg::Vector EmissionColumn(int o) const override;

  double alpha() const { return alpha_; }
  const geo::Region& location_set() const { return location_set_; }

  /// Same restriction with a different PLM budget (Algorithm 3's halving).
  DeltaRestrictedPlanarLaplace WithAlpha(double alpha) const {
    return DeltaRestrictedPlanarLaplace(grid_, alpha, location_set_);
  }

 private:
  /// e^{−α·d(members_[k], members_[j])}, before normalization.
  double Weight(size_t k, size_t j) const;
  /// Emission entry (members_[k], members_[j]): (w/Z)/Z₂, as Create leaves it.
  double Entry(size_t k, size_t j) const {
    return Weight(k, j) / row_sum_[k] / row_norm_[k];
  }

  geo::Grid grid_;
  double alpha_;
  geo::Region location_set_;
  std::vector<int> members_;      // ΔX, ascending
  std::vector<int> member_col_;   // grid column of each member
  std::vector<int> member_row_;   // grid row of each member
  std::vector<size_t> anchor_;    // per cell: index into members_
  // Offset classes: col_class_[a·width + b] indexes the distinct values of
  // |x_a − x_b| over cell-centre columns a, b (row_class_ likewise), and
  // weights_[cx·num_row_classes_ + cy] is the weight at those offsets.
  std::vector<size_t> col_class_;
  std::vector<size_t> row_class_;
  size_t num_row_classes_ = 0;
  std::vector<double> weights_;
  std::vector<double> row_sum_;   // per member row: Z = Σ_j w
  std::vector<double> row_norm_;  // per member row: Z₂ = Σ_j w/Z
  mutable std::once_flag emission_once_;
  mutable std::optional<hmm::EmissionMatrix> emission_;
};

}  // namespace priste::lppm

#endif  // PRISTE_LPPM_DELTA_LOCATION_SET_H_
