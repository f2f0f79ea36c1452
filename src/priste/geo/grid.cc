#include "priste/geo/grid.h"

#include <cmath>

namespace priste::geo {

double Distance(const PointKm& a, const PointKm& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

Grid::Grid(int width, int height, double cell_size_km)
    : width_(width), height_(height), cell_size_km_(cell_size_km) {
  PRISTE_CHECK(width > 0 && height > 0);
  PRISTE_CHECK(cell_size_km > 0.0);
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
