#include "priste/linalg/ops.h"

#include <gtest/gtest.h>

#include "priste/common/random.h"

namespace priste::linalg {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) m(r, c) = rng.Uniform(-1.0, 1.0);
  }
  return m;
}

Vector RandomVector(size_t n, Rng& rng) {
  Vector v(n);
  for (size_t i = 0; i < n; ++i) v[i] = rng.Uniform(-1.0, 1.0);
  return v;
}

TEST(OpsTest, MatVecKnownValues) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const Vector v{1.0, 1.0};
  const Vector out = MatVec(m, v);
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 7.0);
}

TEST(OpsTest, VecMatKnownValues) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const Vector v{1.0, 1.0};
  const Vector out = VecMat(v, m);
  EXPECT_DOUBLE_EQ(out[0], 4.0);
  EXPECT_DOUBLE_EQ(out[1], 6.0);
}

TEST(OpsTest, MatMulAgainstIdentity) {
  Rng rng(3);
  const Matrix m = RandomMatrix(5, 5, rng);
  EXPECT_LT(MatMul(m, Matrix::Identity(5)).MaxAbsDiff(m), 1e-15);
  EXPECT_LT(MatMul(Matrix::Identity(5), m).MaxAbsDiff(m), 1e-15);
}

TEST(OpsTest, MatMulAssociativeWithVector) {
  // (A·B)·v == A·(B·v) — property over random inputs.
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Matrix a = RandomMatrix(4, 6, rng);
    const Matrix b = RandomMatrix(6, 3, rng);
    const Vector v = RandomVector(3, rng);
    const Vector left = MatVec(MatMul(a, b), v);
    const Vector right = MatVec(a, MatVec(b, v));
    EXPECT_LT(left.Minus(right).MaxAbs(), 1e-12);
  }
}

TEST(OpsTest, ScaleColumnsMatchesDiagonalMultiply) {
  Rng rng(7);
  const Matrix m = RandomMatrix(4, 4, rng);
  const Vector d = RandomVector(4, rng);
  const Matrix fast = ScaleColumns(m, d);
  const Matrix slow = MatMul(m, Matrix::Diagonal(d));
  EXPECT_LT(fast.MaxAbsDiff(slow), 1e-15);
}

}  // namespace
}  // namespace priste::linalg
