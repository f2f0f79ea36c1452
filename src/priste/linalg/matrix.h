#ifndef PRISTE_LINALG_MATRIX_H_
#define PRISTE_LINALG_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "priste/common/check.h"
#include "priste/linalg/vector.h"

namespace priste::linalg {

/// Dense row-major double matrix. Sized for the paper's regime (m up to a few
/// thousand states); all operations are cache-friendly loops over contiguous
/// rows rather than a general BLAS.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}

  /// A rows×cols matrix of zeros.
  Matrix(size_t rows, size_t cols) : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// A rows×cols matrix filled with `fill`.
  Matrix(size_t rows, size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Row-by-row construction: `Matrix({{1,2},{3,4}})`.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix Identity(size_t n);
  static Matrix Zeros(size_t rows, size_t cols) { return Matrix(rows, cols); }

  /// diag(d): square matrix with `d` on the diagonal — the paper's `aᴰ`.
  static Matrix Diagonal(const Vector& d);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double operator()(size_t r, size_t c) const {
    PRISTE_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double& operator()(size_t r, size_t c) {
    PRISTE_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Raw pointer to row `r` (contiguous, `cols()` entries).
  const double* RowPtr(size_t r) const {
    PRISTE_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }
  double* RowPtr(size_t r) {
    PRISTE_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }

  /// Copies row `r` out as a Vector.
  Vector Row(size_t r) const;

  /// Copies column `c` out as a Vector.
  Vector Col(size_t c) const;

  /// Entry-wise difference; shapes must match.
  Matrix Minus(const Matrix& other) const;

  /// Max |entry| difference against `other`; shapes must match.
  double MaxAbsDiff(const Matrix& other) const;

  /// True when every row sums to 1 within `tol` and entries are >= -tol.
  bool IsRowStochastic(double tol = 1e-9) const;

  std::string ToString() const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

}  // namespace priste::linalg

#endif  // PRISTE_LINALG_MATRIX_H_
