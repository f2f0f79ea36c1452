#ifndef PRISTE_MARKOV_TRANSITION_MATRIX_H_
#define PRISTE_MARKOV_TRANSITION_MATRIX_H_

#include <memory>

#include "priste/common/status.h"
#include "priste/linalg/matrix.h"
#include "priste/linalg/sparse.h"
#include "priste/linalg/vector.h"

namespace priste::markov {

/// A validated row-stochastic matrix M where M(i,j) = Pr(u_{t+1}=s_j | u_t=s_i)
/// — the paper's temporal-correlation model (first-order time-homogeneous
/// Markov chain; time-varying chains are handled by passing a different
/// TransitionMatrix per timestamp, as noted in Section III footnote 3).
///
/// Chains estimated from trajectories or built from grid random walks are
/// overwhelmingly sparse (≤9 reachable neighbours per cell), so Create()
/// measures the density once and, below kSparseDensityThreshold, carries a
/// CSR view; every product kernel then runs in O(nnz) instead of O(m²). The
/// view is shared between copies and never mutated, so TransitionMatrix
/// stays cheap to copy and safe to share across threads.
class TransitionMatrix {
 public:
  /// Density at or below which Create() builds the CSR fast path.
  static constexpr double kSparseDensityThreshold = 0.25;
  /// No CSR view below this state count — the dense sweep is already cheap.
  static constexpr size_t kSparseMinStates = 16;

  /// Validates and wraps `m`. Returns InvalidArgument when `m` is not square,
  /// has an entry below -tol, or a row that does not sum to 1 within `tol`.
  /// Within-tolerance negative entries are clamped to zero first and rows are
  /// then renormalized exactly to sum to 1, so long products stay stochastic.
  /// `allow_sparse=false` forces the dense kernels (tests / benchmarks).
  static Result<TransitionMatrix> Create(linalg::Matrix m, double tol = 1e-6,
                                         bool allow_sparse = true);

  /// The m×m uniform chain (every row 1/m) — the zero-information prior.
  static TransitionMatrix Uniform(size_t num_states);

  /// The identity chain (the user never moves).
  static TransitionMatrix Identity(size_t num_states);

  size_t num_states() const { return matrix_.rows(); }
  const linalg::Matrix& matrix() const { return matrix_; }

  /// The CSR view, or nullptr when the chain runs on the dense kernels.
  const linalg::SparseMatrix* sparse() const { return sparse_.get(); }
  bool has_sparse() const { return sparse_ != nullptr; }

  double operator()(size_t from, size_t to) const { return matrix_(from, to); }

  /// Row `from` as a probability vector over destinations.
  linalg::Vector RowDistribution(size_t from) const { return matrix_.Row(from); }

  /// One Markov step: p_{t+1} = p_t · M. `p` must be length m.
  linalg::Vector Propagate(const linalg::Vector& p) const;

  /// Allocation-free step: out = p · M. `out` must be length m and must not
  /// alias `p`.
  void PropagateInto(const linalg::Vector& p, linalg::Vector& out) const;

  /// Raw-span kernels over buffers of length m (blockwise lifted-chain steps
  /// operate on slices of lifted vectors). `out` must not alias `p`/`v`.
  /// BackwardSpan is BackwardSpans with one vector.
  void PropagateSpan(const double* p, double* out) const;
  void BackwardSpan(const double* v, double* out) const;

  /// out[j] = M · in[j] for j < count, 1 ≤ count ≤
  /// linalg::kernels::kDotRowsMaxVectors. Bit-equal inputs (memcmp) share one
  /// product. The dense path streams M once for all distinct inputs
  /// (kernels::DotRows); the CSR path runs one MatVecSpan per distinct input.
  /// Either way out[j] is bit-equal to a lone BackwardSpan(in[j]).
  /// No out[j] may overlap any in[k] or another out[k].
  void BackwardSpans(const double* const* in, double* const* out,
                     size_t count) const;

  /// k Markov steps.
  linalg::Vector PropagateSteps(const linalg::Vector& p, int steps) const;

 private:
  explicit TransitionMatrix(linalg::Matrix m, bool allow_sparse = true);

  linalg::Matrix matrix_;
  std::shared_ptr<const linalg::SparseMatrix> sparse_;  // nullptr = dense path
};

}  // namespace priste::markov

#endif  // PRISTE_MARKOV_TRANSITION_MATRIX_H_
