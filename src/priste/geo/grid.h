#ifndef PRISTE_GEO_GRID_H_
#define PRISTE_GEO_GRID_H_

#include <cstddef>

#include "priste/common/check.h"
#include "priste/common/status.h"

namespace priste::geo {

/// A planar point in kilometres.
struct PointKm {
  double x = 0.0;
  double y = 0.0;
};

/// Euclidean distance between two points, in km.
double Distance(const PointKm& a, const PointKm& b);

/// The largest map, in cells. The chain, each emission matrix and the
/// release engine's prefix rows are dense m×m matrices of doubles: 128 MiB
/// each at 4,096 cells, half the emission cache's 256 MiB.
inline constexpr int kMaxGridCells = 4096;

/// The grid rule's sides: both >= 1, cell ids that fit in an int, and at
/// most kMaxGridCells cells. PRISTE_NO_ABORT.
Result<void> ValidateGridSides(int width, int height);

/// The grid rule, which Grid's constructor checks: ValidateGridSides, a cell
/// size > 0 and a finite extent, so every cell centre is finite.
/// PRISTE_NO_ABORT.
Result<void> ValidateGrid(int width, int height, double cell_size_km);

/// A w×h grid map S = {s_1, …, s_m} with m = w·h cells, each cell a square of
/// `cell_size_km` kilometres. Cell indices are row-major, 0-based; the paper's
/// state s_i corresponds to cell index i-1. Cell centers anchor the continuous
/// geometry used by the planar Laplace mechanism and the Euclidean utility
/// metric.
class Grid {
 public:
  Grid(int width, int height, double cell_size_km);

  int width() const { return width_; }
  int height() const { return height_; }
  size_t num_cells() const { return static_cast<size_t>(width_) * height_; }
  double cell_size_km() const { return cell_size_km_; }

  int CellOf(int col, int row) const {
    PRISTE_DCHECK(Contains(col, row));
    return row * width_ + col;
  }
  int ColOf(int cell) const { return cell % width_; }
  int RowOf(int cell) const { return cell / width_; }

  bool Contains(int col, int row) const {
    return col >= 0 && col < width_ && row >= 0 && row < height_;
  }
  bool ContainsCell(int cell) const {
    return cell >= 0 && static_cast<size_t>(cell) < num_cells();
  }

  /// Center of `cell` in km.
  PointKm CenterOf(int cell) const;

  /// The cell containing point `p`, clamped to the grid boundary (the planar
  /// Laplace mechanism uses this remapping when a continuous sample falls
  /// off the map).
  int CellContaining(const PointKm& p) const;

  /// Center-to-center Euclidean distance between cells, in km.
  double CellDistanceKm(int cell_a, int cell_b) const;

 private:
  int width_;
  int height_;
  double cell_size_km_;
};

}  // namespace priste::geo

#endif  // PRISTE_GEO_GRID_H_
