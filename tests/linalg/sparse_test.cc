#include "priste/linalg/sparse.h"

#include <gtest/gtest.h>

#include "priste/common/random.h"
#include "priste/linalg/ops.h"

namespace priste::linalg {
namespace {

// A random matrix where each entry is nonzero with probability `density`.
Matrix RandomMatrixWithDensity(size_t rows, size_t cols, double density, Rng& rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (rng.NextDouble() < density) m(r, c) = rng.Uniform(-2.0, 2.0);
    }
  }
  return m;
}

Vector RandomVector(size_t n, Rng& rng) {
  Vector v(n);
  for (size_t i = 0; i < n; ++i) v[i] = rng.Uniform(-1.0, 1.0);
  return v;
}

// M · x and xᵀ · M through the span kernels the chain runs.
Vector CsrMatVec(const SparseMatrix& m, const Vector& x) {
  Vector out(m.rows());
  m.MatVecSpan(x.data(), out.data());
  return out;
}

Vector CsrVecMat(const SparseMatrix& m, const Vector& x) {
  Vector out(m.cols());
  m.VecMatSpan(x.data(), out.data());
  return out;
}

class SparseEquivalenceTest : public ::testing::TestWithParam<double> {};

TEST_P(SparseEquivalenceTest, RoundTripsThroughDense) {
  Rng rng(100 + static_cast<uint64_t>(GetParam() * 1000));
  for (const size_t n : {size_t{7}, size_t{33}}) {
    const Matrix dense = RandomMatrixWithDensity(n, n, GetParam(), rng);
    const SparseMatrix csr = SparseMatrix::FromDense(dense);
    EXPECT_EQ(csr.rows(), n);
    EXPECT_EQ(csr.cols(), n);
    EXPECT_LT(csr.ToDense().MaxAbsDiff(dense), 1e-15);
  }
}

TEST_P(SparseEquivalenceTest, MatVecMatchesDense) {
  Rng rng(200 + static_cast<uint64_t>(GetParam() * 1000));
  for (const size_t n : {size_t{5}, size_t{24}, size_t{41}}) {
    const Matrix dense = RandomMatrixWithDensity(n, n, GetParam(), rng);
    const SparseMatrix csr = SparseMatrix::FromDense(dense);
    const Vector x = RandomVector(n, rng);
    EXPECT_LT(CsrMatVec(csr, x).Minus(MatVec(dense, x)).MaxAbs(), 1e-12);
    EXPECT_LT(CsrVecMat(csr, x).Minus(VecMat(x, dense)).MaxAbs(), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, SparseEquivalenceTest,
                         ::testing::Values(0.05, 0.3, 0.9));

TEST(SparseMatrixTest, ReportsDensityAndNnz) {
  Matrix m(4, 5);
  m(0, 1) = 1.0;
  m(2, 0) = -3.0;
  m(3, 4) = 0.5;
  const SparseMatrix csr = SparseMatrix::FromDense(m);
  EXPECT_EQ(csr.nnz(), 3u);
  EXPECT_NEAR(csr.density(), 3.0 / 20.0, 1e-15);
}

TEST(SparseMatrixTest, PruneTolDropsSmallEntries) {
  Matrix m(2, 2);
  m(0, 0) = 1.0;
  m(1, 1) = 1e-14;
  EXPECT_EQ(SparseMatrix::FromDense(m).nnz(), 2u);
  EXPECT_EQ(SparseMatrix::FromDense(m, 1e-12).nnz(), 1u);
}

TEST(SparseMatrixTest, EmptyRowsAndAllZeroMatrix) {
  const Matrix zero(3, 3);
  const SparseMatrix csr = SparseMatrix::FromDense(zero);
  EXPECT_EQ(csr.nnz(), 0u);
  const Vector x{1.0, 2.0, 3.0};
  EXPECT_LT(CsrMatVec(csr, x).MaxAbs(), 1e-300);
  EXPECT_LT(CsrVecMat(csr, x).MaxAbs(), 1e-300);
}

TEST(SparseMatrixTest, RectangularShapesSupported) {
  Rng rng(77);
  const Matrix dense = RandomMatrixWithDensity(6, 11, 0.4, rng);
  const SparseMatrix csr = SparseMatrix::FromDense(dense);
  const Vector col_space = RandomVector(11, rng);
  const Vector row_space = RandomVector(6, rng);
  EXPECT_LT(CsrMatVec(csr, col_space).Minus(MatVec(dense, col_space)).MaxAbs(),
            1e-12);
  EXPECT_LT(CsrVecMat(csr, row_space).Minus(VecMat(row_space, dense)).MaxAbs(),
            1e-12);
}

}  // namespace
}  // namespace priste::linalg
