#ifndef PRISTE_LINALG_SPARSE_H_
#define PRISTE_LINALG_SPARSE_H_

#include <cstddef>
#include <vector>

#include "priste/linalg/matrix.h"

namespace priste::linalg {

/// Compressed-sparse-row (CSR) double matrix — the fast path for the
/// grid-random-walk and automaton-lifted transition chains, which touch at
/// most a handful of neighbours per state (≤9 on an 8-connected grid) while
/// the dense kernels sweep all m² entries.
///
/// Both products are O(nnz) and write into caller-provided buffers.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Converts a dense matrix, keeping entries with |value| > prune_tol.
  static SparseMatrix FromDense(const Matrix& m, double prune_tol = 0.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return values_.size(); }
  bool empty() const { return rows_ == 0; }

  /// nnz / (rows·cols); 0 for an empty matrix.
  double density() const;

  /// out = M · x (column product, x of length cols()) and out = xᵀ · M (row
  /// product, x of length rows()) over raw spans; the building blocks for
  /// blockwise lifted-chain steps (core::TwoWorldModel /
  /// core::AutomatonWorldModel operate on half/slice views of lifted
  /// vectors). `out` must not alias `x`.
  void MatVecSpan(const double* x, double* out) const;
  void VecMatSpan(const double* x, double* out) const;

  /// Materializes the dense form (tests / oracles).
  Matrix ToDense() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<size_t> row_ptr_;   // size rows_+1; row r spans [row_ptr_[r], row_ptr_[r+1])
  std::vector<size_t> col_idx_;   // size nnz
  std::vector<double> values_;    // size nnz
};

}  // namespace priste::linalg

#endif  // PRISTE_LINALG_SPARSE_H_
