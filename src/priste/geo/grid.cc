#include "priste/geo/grid.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>

#include "priste/common/strings.h"
#include "priste/common/thread_annotations.h"

namespace priste::geo {

double Distance(const PointKm& a, const PointKm& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

PRISTE_NO_ABORT
Result<void> ValidateGridSides(int width, int height) {
  if (width < 1 || height < 1) {
    return err::InvalidArgument("grid sides must be >= 1");
  }
  const int64_t cells = int64_t{width} * height;
  if (cells > INT_MAX) {
    return err::InvalidArgument("grid has more cells than int ids can number");
  }
  if (cells > kMaxGridCells) {
    return err::InvalidArgument(StrFormat(
        "grid has %lld cells, past the %d-cell limit of its dense matrices",
        static_cast<long long>(cells), kMaxGridCells));
  }
  return {};
}

PRISTE_NO_ABORT
Result<void> ValidateGrid(int width, int height, double cell_size_km) {
  PRISTE_TRY_VOID(ValidateGridSides(width, height));
  if (!(cell_size_km > 0.0)) {  // `>` also refuses NaN
    return err::InvalidArgument("cell size must be > 0 km");
  }
  if (!std::isfinite(std::max(width, height) * cell_size_km)) {
    return err::InvalidArgument("cell size gives the grid no finite extent");
  }
  return {};
}

Grid::Grid(int width, int height, double cell_size_km)
    : width_(width), height_(height), cell_size_km_(cell_size_km) {
  PRISTE_CHECK_OK(ValidateGrid(width, height, cell_size_km));
}

PointKm Grid::CenterOf(int cell) const {
  PRISTE_CHECK(ContainsCell(cell));
  return PointKm{(ColOf(cell) + 0.5) * cell_size_km_,
                 (RowOf(cell) + 0.5) * cell_size_km_};
}

RectKm Grid::CellBoundsKm(int cell) const {
  PRISTE_CHECK(ContainsCell(cell));
  const double col = static_cast<double>(ColOf(cell));
  const double row = static_cast<double>(RowOf(cell));
  return RectKm{col * cell_size_km_, (col + 1.0) * cell_size_km_,
                row * cell_size_km_, (row + 1.0) * cell_size_km_};
}

namespace {

// floor(coordinate / cell) clamped to [0, count − 1] while still a double:
// casting a far-off coordinate's index to int first would overflow (UB).
int ClampedIndex(double coordinate, double cell_size_km, int count) {
  const double index = std::floor(coordinate / cell_size_km);
  if (!(index > 0.0)) return 0;  // NaN lands on the first cell too
  if (index >= count - 1) return count - 1;
  return static_cast<int>(index);
}

}  // namespace

int Grid::CellContaining(const PointKm& p) const {
  return CellOf(ClampedIndex(p.x, cell_size_km_, width_),
                ClampedIndex(p.y, cell_size_km_, height_));
}

double Grid::CellDistanceKm(int cell_a, int cell_b) const {
  return Distance(CenterOf(cell_a), CenterOf(cell_b));
}

}  // namespace priste::geo
