#include "priste/linalg/vector.h"

#include <limits>

#include <gtest/gtest.h>

namespace priste::linalg {
namespace {

TEST(VectorTest, ConstructionAndAccess) {
  Vector v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
  v[1] = 5.0;
  EXPECT_DOUBLE_EQ(v[1], 5.0);
}

TEST(VectorTest, ZerosOnesUnit) {
  EXPECT_DOUBLE_EQ(Vector::Zeros(4).Sum(), 0.0);
  EXPECT_DOUBLE_EQ(Vector::Ones(4).Sum(), 4.0);
  const Vector e = Vector::Unit(3, 1);
  EXPECT_DOUBLE_EQ(e[0], 0.0);
  EXPECT_DOUBLE_EQ(e[1], 1.0);
  EXPECT_DOUBLE_EQ(e[2], 0.0);
}

TEST(VectorTest, UniformProbabilitySumsToOne) {
  const Vector u = Vector::UniformProbability(8);
  EXPECT_NEAR(u.Sum(), 1.0, 1e-15);
  EXPECT_DOUBLE_EQ(u[3], 1.0 / 8.0);
}

TEST(VectorTest, DotAndHadamard) {
  const Vector a{1.0, 2.0, 3.0};
  const Vector b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(a.Dot(b), 32.0);
  const Vector h = a.Hadamard(b);
  EXPECT_DOUBLE_EQ(h[0], 4.0);
  EXPECT_DOUBLE_EQ(h[1], 10.0);
  EXPECT_DOUBLE_EQ(h[2], 18.0);
}

TEST(VectorTest, ArithmeticAndNorms) {
  const Vector a{1.0, -2.0, 3.0};
  const Vector b{1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(a.Plus(b)[1], -1.0);
  EXPECT_DOUBLE_EQ(a.Minus(b)[0], 0.0);
  EXPECT_DOUBLE_EQ(a.Scaled(2.0)[2], 6.0);
  EXPECT_DOUBLE_EQ(a.MaxAbs(), 3.0);
  EXPECT_DOUBLE_EQ(a.NormL1(), 6.0);
  EXPECT_DOUBLE_EQ(a.Max(), 3.0);
  EXPECT_DOUBLE_EQ(a.Min(), -2.0);
  EXPECT_EQ(a.ArgMax(), 2u);
}

TEST(VectorTest, SliceAndConcat) {
  const Vector v{1.0, 2.0, 3.0, 4.0};
  const Vector s = v.Slice(1, 2);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0], 2.0);
  EXPECT_DOUBLE_EQ(s[1], 3.0);
  const Vector c = s.Concat(Vector{9.0});
  ASSERT_EQ(c.size(), 3u);
  EXPECT_DOUBLE_EQ(c[2], 9.0);
}

TEST(VectorTest, NormalizeToProbability) {
  Vector v{1.0, 3.0};
  const double total = v.NormalizeToProbability();
  EXPECT_DOUBLE_EQ(total, 4.0);
  EXPECT_DOUBLE_EQ(v[0], 0.25);
  EXPECT_DOUBLE_EQ(v[1], 0.75);
}

TEST(VectorTest, AllInRange) {
  const Vector v{0.0, 0.5, 1.0};
  EXPECT_TRUE(v.AllInRange(0.0, 1.0));
  EXPECT_FALSE(Vector({-0.1, 0.5}).AllInRange(0.0, 1.0));
  // Tolerance admits tiny numerical noise.
  EXPECT_TRUE(Vector({-1e-14, 0.5}).AllInRange(0.0, 1.0));
  EXPECT_FALSE(
      Vector({std::numeric_limits<double>::quiet_NaN(), 0.5}).AllInRange(0.0, 1.0));
}

TEST(VectorTest, ToStringIsReadable) {
  EXPECT_EQ(Vector({1.0, 0.5}).ToString(), "[1, 0.5]");
}

}  // namespace
}  // namespace priste::linalg
