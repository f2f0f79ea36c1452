#include "priste/hmm/emission_model.h"

#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace priste::hmm {
namespace {

TEST(EmissionMatrixTest, CreateValidates) {
  EXPECT_FALSE(EmissionMatrix::Create(linalg::Matrix(0, 0)).ok());
  EXPECT_FALSE(EmissionMatrix::Create(linalg::Matrix{{0.5, 0.6}}).ok());
  EXPECT_FALSE(EmissionMatrix::Create(linalg::Matrix{{-0.1, 1.1}}).ok());
  // Non-finite entries fail before the sign and sum tests, which NaN passes.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto with_nan = EmissionMatrix::Create(linalg::Matrix{{nan, 1.0}});
  ASSERT_FALSE(with_nan.ok());
  EXPECT_EQ(with_nan.error().code, StatusCode::kInvalidArgument);
  EXPECT_NE(with_nan.error().message.find("(0,0)"), std::string::npos)
      << with_nan.error();
  EXPECT_FALSE(EmissionMatrix::Create(linalg::Matrix{{0.5, inf}}).ok());
  EXPECT_TRUE(EmissionMatrix::Create(linalg::Matrix{{0.2, 0.8}, {1.0, 0.0}}).ok());
}

TEST(EmissionMatrixTest, CreateNormalizedKeepsEntriesBitForBit) {
  // The row sums to 1 − 2^-53 in column order, so Create rescales every
  // entry and CreateNormalized keeps them.
  const double c = 1.0 - 0.3 - 0.6;
  const linalg::Matrix e{{0.3, 0.6, c}};
  const auto kept = EmissionMatrix::CreateNormalized(e);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->matrix().MaxAbsDiff(e), 0.0);
  const auto rescaled = EmissionMatrix::Create(e);
  ASSERT_TRUE(rescaled.ok());
  EXPECT_NE((*rescaled)(0, 0), 0.3);
  // The checks are Create's, except that no entry may be negative.
  EXPECT_FALSE(EmissionMatrix::CreateNormalized(linalg::Matrix(0, 0)).ok());
  EXPECT_FALSE(EmissionMatrix::CreateNormalized(linalg::Matrix{{0.5, 0.6}}).ok());
  EXPECT_FALSE(EmissionMatrix::CreateNormalized(
                   linalg::Matrix{{std::numeric_limits<double>::quiet_NaN(), 1.0}})
                   .ok());
  EXPECT_TRUE(EmissionMatrix::Create(linalg::Matrix{{-1e-9, 1.0}}).ok());
  EXPECT_FALSE(EmissionMatrix::CreateNormalized(linalg::Matrix{{-1e-9, 1.0}}).ok());
}

TEST(EmissionMatrixTest, IdentityReportsTruth) {
  const EmissionMatrix e = EmissionMatrix::Identity(3);
  EXPECT_DOUBLE_EQ(e(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(e(1, 0), 0.0);
}

TEST(EmissionMatrixTest, UniformRevealsNothing) {
  const EmissionMatrix e = EmissionMatrix::Uniform(3, 4);
  EXPECT_EQ(e.num_states(), 3u);
  EXPECT_EQ(e.num_outputs(), 4u);
  EXPECT_DOUBLE_EQ(e(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(e(2, 3), 0.25);
}

TEST(EmissionMatrixTest, ColumnAndRowAccess) {
  const auto e = EmissionMatrix::Create(linalg::Matrix{{0.2, 0.8}, {0.7, 0.3}});
  ASSERT_TRUE(e.ok());
  const linalg::Vector col = e->EmissionColumn(1);
  EXPECT_DOUBLE_EQ(col[0], 0.8);
  EXPECT_DOUBLE_EQ(col[1], 0.3);
  const linalg::Vector row = e->OutputDistribution(1);
  EXPECT_DOUBLE_EQ(row[0], 0.7);
  EXPECT_NEAR(row.Sum(), 1.0, 1e-12);
}

}  // namespace
}  // namespace priste::hmm
