#include "priste/linalg/ops.h"

#include "priste/linalg/kernels.h"

namespace priste::linalg {

Vector MatVec(const Matrix& m, const Vector& v) {
  PRISTE_CHECK(v.size() == m.cols());
  Vector out(m.rows());
  for (size_t r = 0; r < m.rows(); ++r) {
    out[r] = kernels::Dot(m.RowPtr(r), v.data(), m.cols());
  }
  return out;
}

Vector VecMat(const Vector& v, const Matrix& m) {
  PRISTE_CHECK(v.size() == m.rows());
  Vector out(m.cols());
  for (size_t r = 0; r < m.rows(); ++r) {
    const double scale = v[r];
    if (scale == 0.0) continue;
    kernels::Axpy(scale, m.RowPtr(r), out.data(), m.cols());
  }
  return out;
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  PRISTE_CHECK(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.RowPtr(i);
    double* orow = out.RowPtr(i);
    for (size_t k = 0; k < a.cols(); ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      kernels::Axpy(aik, b.RowPtr(k), orow, b.cols());
    }
  }
  return out;
}

Matrix ScaleColumns(const Matrix& m, const Vector& d) {
  PRISTE_CHECK(d.size() == m.cols());
  Matrix out = m;
  for (size_t r = 0; r < out.rows(); ++r) {
    kernels::HadamardInPlace(d.data(), out.RowPtr(r), out.cols());
  }
  return out;
}

}  // namespace priste::linalg
