#include "priste/geo/grid.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace priste::geo {
namespace {

TEST(GridTest, BasicGeometry) {
  const Grid grid(4, 3, 1.0);
  EXPECT_EQ(grid.num_cells(), 12u);
  EXPECT_EQ(grid.CellOf(0, 0), 0);
  EXPECT_EQ(grid.CellOf(3, 2), 11);
  EXPECT_EQ(grid.ColOf(5), 1);
  EXPECT_EQ(grid.RowOf(5), 1);
}

TEST(GridTest, ContainsChecks) {
  const Grid grid(4, 3, 1.0);
  EXPECT_TRUE(grid.Contains(0, 0));
  EXPECT_TRUE(grid.Contains(3, 2));
  EXPECT_FALSE(grid.Contains(4, 0));
  EXPECT_FALSE(grid.Contains(0, -1));
  EXPECT_TRUE(grid.ContainsCell(11));
  EXPECT_FALSE(grid.ContainsCell(12));
  EXPECT_FALSE(grid.ContainsCell(-1));
}

TEST(GridTest, CenterAndDistance) {
  const Grid grid(4, 4, 2.0);
  const PointKm c0 = grid.CenterOf(0);
  EXPECT_DOUBLE_EQ(c0.x, 1.0);
  EXPECT_DOUBLE_EQ(c0.y, 1.0);
  // Horizontally adjacent cells are one cell size apart.
  EXPECT_DOUBLE_EQ(grid.CellDistanceKm(0, 1), 2.0);
  // Diagonal neighbours.
  EXPECT_NEAR(grid.CellDistanceKm(0, 5), 2.0 * std::sqrt(2.0), 1e-12);
}

TEST(GridTest, CellContainingRoundTrips) {
  const Grid grid(5, 5, 1.5);
  for (int cell = 0; cell < 25; ++cell) {
    EXPECT_EQ(grid.CellContaining(grid.CenterOf(cell)), cell);
  }
}

TEST(GridTest, CellContainingClampsOutOfBounds) {
  const Grid grid(3, 3, 1.0);
  EXPECT_EQ(grid.CellContaining(PointKm{-5.0, -5.0}), grid.CellOf(0, 0));
  EXPECT_EQ(grid.CellContaining(PointKm{100.0, 100.0}), grid.CellOf(2, 2));
  EXPECT_EQ(grid.CellContaining(PointKm{-1.0, 1.5}), grid.CellOf(0, 1));
  // Far past the int range: the nearest edge cell, not a wrapped cast.
  EXPECT_EQ(grid.CellContaining(PointKm{1e10, 1.5}), grid.CellOf(2, 1));
  EXPECT_EQ(grid.CellContaining(PointKm{-1e300, 1e300}), grid.CellOf(0, 2));
  EXPECT_EQ(grid.CellContaining(PointKm{1.5, 3e9}), grid.CellOf(1, 2));
}

// The rule's message, or "" when it accepts.
std::string Refusal(const Result<void>& rule) {
  return rule.ok() ? "" : rule.error().message;
}

TEST(GridRuleTest, SidesMustBePositive) {
  EXPECT_NE(Refusal(ValidateGrid(0, 4, 1.0)).find("sides must be >= 1"),
            std::string::npos);
  EXPECT_NE(Refusal(ValidateGrid(4, 0, 1.0)).find("sides must be >= 1"),
            std::string::npos);
  EXPECT_FALSE(ValidateGridSides(-3, 4).ok());
  EXPECT_TRUE(ValidateGrid(1, 1, 1.0).ok());
}

TEST(GridRuleTest, CellIdsFitAnIntAndTheDenseMatricesFit) {
  // 50000 × 50000 cells cannot be numbered by int ids; 100000 × 1 can, but
  // its dense m × m matrices would take 80 GB.
  EXPECT_NE(Refusal(ValidateGridSides(50000, 50000)).find("int ids"),
            std::string::npos);
  EXPECT_NE(Refusal(ValidateGridSides(100000, 1)).find("4096-cell limit"),
            std::string::npos);
  EXPECT_TRUE(ValidateGridSides(kMaxGridCells, 1).ok());
  EXPECT_TRUE(ValidateGridSides(64, 64).ok());
  EXPECT_FALSE(ValidateGridSides(kMaxGridCells + 1, 1).ok());
  EXPECT_FALSE(ValidateGridSides(65, 64).ok());
  // The largest map any test, bench or example builds.
  EXPECT_TRUE(ValidateGrid(2000, 1, 1.0).ok());
}

TEST(GridRuleTest, CellSizeIsPositiveWithAFiniteExtent) {
  const double max = std::numeric_limits<double>::max();
  for (const double s : {0.0, -0.0, -1.0,
                         std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::infinity()}) {
    EXPECT_NE(Refusal(ValidateGrid(4, 4, s)).find("cell size must be > 0"),
              std::string::npos)
        << s;
  }
  EXPECT_NE(Refusal(ValidateGrid(4, 4, std::numeric_limits<double>::infinity()))
                .find("finite extent"),
            std::string::npos);
  // The extent is the longer side times the cell size.
  EXPECT_FALSE(ValidateGrid(1, 3, max / 2).ok());
  EXPECT_FALSE(ValidateGrid(3, 1, max / 2).ok());
  EXPECT_TRUE(ValidateGrid(1, 1, max).ok());
  EXPECT_TRUE(ValidateGrid(2, 2, max / 2).ok());
  EXPECT_TRUE(ValidateGrid(4, 4, std::numeric_limits<double>::denorm_min()).ok());
}

TEST(GridRuleDeathTest, ConstructorChecksTheRule) {
  EXPECT_DEATH(Grid(0, 4, 1.0), "grid sides must be >= 1");
  EXPECT_DEATH(Grid(100000, 1, 1.0), "cell limit");
  EXPECT_DEATH(Grid(4, 4, 0.0), "cell size must be > 0");
}

TEST(PointTest, Distance) {
  EXPECT_DOUBLE_EQ(Distance(PointKm{0.0, 0.0}, PointKm{3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(Distance(PointKm{1.0, 1.0}, PointKm{1.0, 1.0}), 0.0);
}

}  // namespace
}  // namespace priste::geo
