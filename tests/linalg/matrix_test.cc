#include "priste/linalg/matrix.h"

#include <gtest/gtest.h>

namespace priste::linalg {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  m(1, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 7.0);
}

TEST(MatrixTest, IdentityAndDiagonal) {
  const Matrix i = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(i(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
  const Matrix d = Matrix::Diagonal(Vector{2.0, 3.0});
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(MatrixTest, RowAndCol) {
  const Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  EXPECT_DOUBLE_EQ(m.Row(1)[2], 6.0);
  EXPECT_DOUBLE_EQ(m.Col(0)[1], 4.0);
}

TEST(MatrixTest, Minus) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ(a.Minus(b)(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(a.Minus(b)(1, 1), 3.0);
}

TEST(MatrixTest, MaxAbsDiff) {
  const Matrix a{{1.0, 2.0}};
  const Matrix b{{1.5, 1.0}};
  EXPECT_DOUBLE_EQ(a.MaxAbsDiff(b), 1.0);
}

TEST(MatrixTest, IsRowStochastic) {
  EXPECT_TRUE((Matrix{{0.5, 0.5}, {0.0, 1.0}}).IsRowStochastic());
  EXPECT_FALSE((Matrix{{0.5, 0.6}, {0.0, 1.0}}).IsRowStochastic());
  EXPECT_FALSE((Matrix{{-0.5, 1.5}, {0.0, 1.0}}).IsRowStochastic());
}

}  // namespace
}  // namespace priste::linalg
