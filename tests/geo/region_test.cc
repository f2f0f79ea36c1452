#include "priste/geo/region.h"

#include <gtest/gtest.h>

namespace priste::geo {
namespace {

TEST(RegionTest, EmptyAndAdd) {
  Region r(5);
  EXPECT_TRUE(r.Empty());
  r.Add(2);
  r.Add(4);
  EXPECT_EQ(r.Count(), 2u);
  EXPECT_TRUE(r.Contains(2));
  EXPECT_FALSE(r.Contains(3));
}

TEST(RegionTest, InitializerListConstruction) {
  const Region r(6, {0, 3, 5});
  EXPECT_EQ(r.States(), (std::vector<int>{0, 3, 5}));
}

TEST(RegionTest, RangeOneBasedMatchesPaperShorthand) {
  // The paper's S = {1:10} means states s_1..s_10 → indices 0..9.
  const Region r = Region::RangeOneBased(400, 1, 10);
  EXPECT_EQ(r.Count(), 10u);
  EXPECT_TRUE(r.Contains(0));
  EXPECT_TRUE(r.Contains(9));
  EXPECT_FALSE(r.Contains(10));
}

TEST(RegionTest, IndicatorVector) {
  const Region r(4, {1, 2});
  const linalg::Vector ind = r.Indicator();
  EXPECT_DOUBLE_EQ(ind[0], 0.0);
  EXPECT_DOUBLE_EQ(ind[1], 1.0);
  EXPECT_DOUBLE_EQ(ind[2], 1.0);
  EXPECT_DOUBLE_EQ(ind[3], 0.0);
}

TEST(RegionTest, SetOperations) {
  const Region a(5, {0, 1, 2});
  const Region b(5, {2, 3});
  EXPECT_EQ(a.Union(b).Count(), 4u);
  EXPECT_EQ(a.Complement().States(), (std::vector<int>{3, 4}));
}

TEST(RegionTest, EqualityAndToString) {
  EXPECT_EQ(Region(3, {1}), Region(3, {1}));
  EXPECT_FALSE(Region(3, {1}) == Region(3, {2}));
  EXPECT_EQ(Region(3, {0, 2}).ToString(), "{s1, s3}");
}

}  // namespace
}  // namespace priste::geo
