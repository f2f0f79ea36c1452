#include "priste/linalg/sparse.h"

#include <cmath>
#include <cstdint>
#include <cstring>

#include "priste/linalg/kernels.h"

namespace priste::linalg {

namespace {
// Debug-mode aliasing guard: the span kernels assume non-overlapping in/out
// buffers; an overlap would be silent corruption, not an error.
[[maybe_unused]] bool SpansOverlap(const double* a, size_t an, const double* b,
                                   size_t bn) {
  const auto ai = reinterpret_cast<uintptr_t>(a);
  const auto bi = reinterpret_cast<uintptr_t>(b);
  return ai < bi + bn * sizeof(double) && bi < ai + an * sizeof(double);
}
}  // namespace

SparseMatrix SparseMatrix::FromDense(const Matrix& m, double prune_tol) {
  SparseMatrix out;
  out.rows_ = m.rows();
  out.cols_ = m.cols();
  out.row_ptr_.assign(out.rows_ + 1, 0);
  size_t nnz = 0;
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.RowPtr(r);
    for (size_t c = 0; c < m.cols(); ++c) {
      if (std::fabs(row[c]) > prune_tol) ++nnz;
    }
    out.row_ptr_[r + 1] = nnz;
  }
  out.col_idx_.reserve(nnz);
  out.values_.reserve(nnz);
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.RowPtr(r);
    for (size_t c = 0; c < m.cols(); ++c) {
      if (std::fabs(row[c]) > prune_tol) {
        out.col_idx_.push_back(c);
        out.values_.push_back(row[c]);
      }
    }
  }
  return out;
}

double SparseMatrix::density() const {
  const size_t cells = rows_ * cols_;
  return cells == 0 ? 0.0 : static_cast<double>(nnz()) / static_cast<double>(cells);
}

void SparseMatrix::MatVecSpan(const double* x, double* out) const {
  PRISTE_DCHECK(!SpansOverlap(x, cols_, out, rows_));
  for (size_t r = 0; r < rows_; ++r) {
    const size_t begin = row_ptr_[r];
    out[r] = kernels::GatherDot(values_.data() + begin,
                                col_idx_.data() + begin,
                                row_ptr_[r + 1] - begin, x);
  }
}

void SparseMatrix::VecMatSpan(const double* x, double* out) const {
  PRISTE_DCHECK(!SpansOverlap(x, rows_, out, cols_));
  std::memset(out, 0, cols_ * sizeof(double));
  for (size_t r = 0; r < rows_; ++r) {
    const double scale = x[r];
    if (scale == 0.0) continue;
    const size_t begin = row_ptr_[r];
    kernels::ScatterAxpy(scale, values_.data() + begin,
                         col_idx_.data() + begin, row_ptr_[r + 1] - begin,
                         out);
  }
}

void SparseMatrix::MatVecInto(const Vector& x, Vector& out) const {
  PRISTE_CHECK(x.size() == cols_ && out.size() == rows_);
  MatVecSpan(x.data(), out.data());
}

Vector SparseMatrix::MatVec(const Vector& x) const {
  Vector out(rows_);
  MatVecInto(x, out);
  return out;
}

void SparseMatrix::VecMatInto(const Vector& x, Vector& out) const {
  PRISTE_CHECK(x.size() == rows_ && out.size() == cols_);
  VecMatSpan(x.data(), out.data());
}

Vector SparseMatrix::VecMat(const Vector& x) const {
  Vector out(cols_);
  VecMatInto(x, out);
  return out;
}

void SparseMatrix::VecMatHadamardInto(const Vector& x, const Vector& h,
                                      Vector& out) const {
  PRISTE_CHECK(x.size() == rows_ && h.size() == cols_ && out.size() == cols_);
  VecMatSpan(x.data(), out.data());
  kernels::HadamardInPlace(h.data(), out.data(), cols_);
}

void SparseMatrix::MatVecHadamardInto(const Vector& h, const Vector& x,
                                      Vector& out) const {
  PRISTE_CHECK(x.size() == cols_ && h.size() == cols_ && out.size() == rows_);
  // One vectorized h∘x pass, then each row is a plain gather dot — cheaper
  // than the per-entry triple product once rows share columns.
  static thread_local std::vector<double> scratch;
  if (scratch.size() < cols_) scratch.resize(cols_, 0.0);
  kernels::HadamardInto(h.data(), x.data(), scratch.data(), cols_);
  MatVecSpan(scratch.data(), out.data());
}

Matrix SparseMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    double* row = out.RowPtr(r);
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      row[col_idx_[k]] = values_[k];
    }
  }
  return out;
}

}  // namespace priste::linalg
