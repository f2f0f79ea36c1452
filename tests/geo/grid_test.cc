#include "priste/geo/grid.h"

#include <cmath>

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

TEST(GridTest, Square20Factory) {
  const Grid grid = Grid::Square20();
  EXPECT_EQ(grid.width(), 20);
  EXPECT_EQ(grid.height(), 20);
  EXPECT_EQ(grid.num_cells(), 400u);
}

TEST(GridTest, CellBoundsContainCenterAndTile) {
  const Grid grid(4, 3, 0.5);
  for (size_t cell = 0; cell < grid.num_cells(); ++cell) {
    const RectKm bounds = grid.CellBoundsKm(static_cast<int>(cell));
    EXPECT_DOUBLE_EQ(bounds.x1 - bounds.x0, 0.5);
    EXPECT_DOUBLE_EQ(bounds.y1 - bounds.y0, 0.5);
    const PointKm center = grid.CenterOf(static_cast<int>(cell));
    EXPECT_GT(center.x, bounds.x0);
    EXPECT_LT(center.x, bounds.x1);
    EXPECT_GT(center.y, bounds.y0);
    EXPECT_LT(center.y, bounds.y1);
    EXPECT_EQ(grid.CellContaining(center), static_cast<int>(cell));
  }
  // Adjacent cells share an edge exactly (the bounds tile the grid).
  EXPECT_DOUBLE_EQ(grid.CellBoundsKm(grid.CellOf(0, 0)).x1,
                   grid.CellBoundsKm(grid.CellOf(1, 0)).x0);
  EXPECT_DOUBLE_EQ(grid.CellBoundsKm(grid.CellOf(0, 0)).y1,
                   grid.CellBoundsKm(grid.CellOf(0, 1)).y0);
}

TEST(PointTest, Distance) {
  EXPECT_DOUBLE_EQ(Distance(PointKm{0.0, 0.0}, PointKm{3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(Distance(PointKm{1.0, 1.0}, PointKm{1.0, 1.0}), 0.0);
}

}  // namespace
}  // namespace priste::geo
