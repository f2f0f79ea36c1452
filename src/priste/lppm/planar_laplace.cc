#include "priste/lppm/planar_laplace.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <numbers>
#include <tuple>
#include <utility>
#include <vector>

#include "priste/common/check.h"
#include "priste/common/strings.h"
#include "priste/lppm/planar_laplace_cell_mass.h"

namespace priste::lppm {
namespace {

/// One side [lo, hi] of a preimage rectangle, relative to the input cell's
/// center.
struct Side {
  double lo;
  double hi;
};

/// The canonical order of sides: by (hi − lo, lo, hi), lexicographically.
bool Precedes(const Side& a, const Side& b) {
  return std::make_tuple(a.hi - a.lo, a.lo, a.hi) <
         std::make_tuple(b.hi - b.lo, b.lo, b.hi);
}

/// The preimage sides along one grid axis of n cells of size s: output o seen
/// from the center of input i covers its cell's interval, a border output's
/// outer side extended to the tail radius, and everything truncated at it.
/// An interior output's side depends only on o − i and a border output's
/// only on i, so Slot(i, o) numbers the distinct cases: the low-border
/// outputs by i, the high-border ones by i, then the interior ones by o − i.
/// Each side is stored reflected to lo + hi >= 0. Its bounds are
/// (o − i ± 0.5)·s or ±r_cut, so the reflection is exact and a mirrored pair
/// (i, o) lands on bit-equal bounds.
class AxisSides {
 public:
  AxisSides(int n, double s, double r_cut) : n_(n) {
    const auto add = [&](int delta, bool low_border, bool high_border) {
      const double lo =
          low_border ? -r_cut : std::max((delta - 0.5) * s, -r_cut);
      const double hi =
          high_border ? r_cut : std::min((delta + 0.5) * s, r_cut);
      sides_.push_back(lo + hi < 0.0 ? Side{-hi, -lo} : Side{lo, hi});
    };
    for (int i = 0; i < n; ++i) add(-i, true, n == 1);
    if (n >= 2) {
      for (int i = 0; i < n; ++i) add(n - 1 - i, false, true);
    }
    if (n >= 3) {
      for (int delta = 2 - n; delta <= n - 2; ++delta) add(delta, false, false);
    }
  }

  size_t size() const { return sides_.size(); }
  const Side& operator[](size_t slot) const { return sides_[slot]; }

  size_t Slot(int i, int o) const {
    if (o == 0) return static_cast<size_t>(i);
    if (o == n_ - 1) return static_cast<size_t>(n_ + i);
    return static_cast<size_t>(3 * n_ - 2 + (o - i));
  }

 private:
  int n_;
  std::vector<Side> sides_;
};

/// E(i, o) = Pr(clamp(c_i + noise) ∈ cell o): the *exact* discretization of
/// SampleContinuous. The preimage of an interior cell is the cell itself; a
/// border cell additionally absorbs the clamped off-grid mass, so its
/// preimage extends to infinity across the border sides (truncated at the
/// radius where the remaining tail mass is below 1e-18). Rows are normalized
/// by their quadrature sum (≈ 1 by construction — the preimages tile the
/// plane) so the matrix is row-stochastic to rounding.
hmm::EmissionMatrix BuildEmission(const geo::Grid& grid, double alpha) {
  const size_t m = grid.num_cells();
  if (alpha <= 0.0) {
    return hmm::EmissionMatrix::Uniform(m, m);
  }
  const double s = grid.cell_size_km();
  // (1 + αR)e^{−αR} < 1e−18 at αR = 45.
  const double r_cut = 45.0 / alpha;
  // Once the truncation radius fits in the own cell (α·s >= 90), every other
  // preimage is empty and each row normalizes to exactly the identity. The
  // quadrature reaches that value too, until r_cut is so small (α·s past
  // ~1e158) that its fan-sweep products underflow to a zero own-cell mass.
  if (r_cut <= 0.5 * s) return hmm::EmissionMatrix::Identity(m);
  const detail::PlanarLaplaceCellMass mass(alpha);
  const AxisSides xs(grid.width(), s, r_cut);
  const AxisSides ys(grid.height(), s, r_cut);

  // The density is radially symmetric and the cells are square, so a
  // preimage rectangle, its reflections and its transpose have one mass.
  // Each (x side, y side) pair maps to its canonical rectangle: both sides
  // reflected (AxisSides), then swapped if the x side Precedes the y side.
  // Each canonical rectangle is integrated once: 780 quadratures for the
  // 77 × 77 side pairs of a 20×20 grid.
  std::map<std::array<double, 4>, uint32_t> canonical;
  std::vector<double> masses;
  std::vector<uint32_t> mass_of(xs.size() * ys.size());
  for (size_t a = 0; a < xs.size(); ++a) {
    for (size_t b = 0; b < ys.size(); ++b) {
      Side x = xs[a];
      Side y = ys[b];
      if (Precedes(x, y)) std::swap(x, y);
      const auto [it, added] = canonical.try_emplace(
          {x.lo, x.hi, y.lo, y.hi}, static_cast<uint32_t>(masses.size()));
      if (added) masses.push_back(mass.OverRect(x.lo, x.hi, y.lo, y.hi));
      mass_of[a * ys.size() + b] = it->second;
    }
  }

  // Each row sums its masses grouped by canonical rectangle, so a mirrored
  // or transposed row adds the same numbers in the same order: the matrix
  // keeps the grid's symmetries bit for bit.
  std::vector<uint32_t> uses(masses.size(), 0);
  linalg::Matrix e(m, m);
  for (size_t i = 0; i < m; ++i) {
    const int ci = grid.ColOf(static_cast<int>(i));
    const int ri = grid.RowOf(static_cast<int>(i));
    double* row = e.RowPtr(i);
    for (size_t o = 0; o < m; ++o) {
      const size_t a = xs.Slot(ci, grid.ColOf(static_cast<int>(o)));
      const size_t b = ys.Slot(ri, grid.RowOf(static_cast<int>(o)));
      const uint32_t k = mass_of[a * ys.size() + b];
      row[o] = masses[k];
      ++uses[k];
    }
    double sum = 0.0;
    for (size_t k = 0; k < masses.size(); ++k) {
      for (; uses[k] > 0; --uses[k]) sum += masses[k];
    }
    PRISTE_CHECK_MSG(std::fabs(sum - 1.0) < 1e-6,
                     "planar Laplace cell masses do not tile the plane");
    for (size_t o = 0; o < m; ++o) row[o] /= sum;
  }
  auto result = hmm::EmissionMatrix::CreateNormalized(std::move(e));
  PRISTE_CHECK_MSG(result.ok(), "planar Laplace emission invalid");
  return std::move(result).value();
}

}  // namespace

double PlanarLaplaceMechanism::ValidateAlpha(double alpha) {
  // Runs from the member-init list, so an invalid budget fails before any
  // emission work starts (emission_ is initialized after alpha_).
  PRISTE_CHECK_MSG(alpha >= 0.0, "planar Laplace budget must be >= 0");
  PRISTE_CHECK_MSG(std::isfinite(alpha), "planar Laplace budget must be finite");
  return alpha;
}

PlanarLaplaceMechanism::PlanarLaplaceMechanism(const geo::Grid& grid, double alpha)
    : grid_(grid),
      alpha_(ValidateAlpha(alpha)),
      // BuildEmission is a pure function of (grid geometry, α), so the
      // process-wide cache shares one matrix across every mechanism instance
      // with this key — and an evicted entry rebuilds bit-identically.
      emission_(EmissionCache::Shared().GetOrBuild(
          EmissionKey{EmissionKey::Kind::kPlanarLaplace, grid.width(),
                      grid.height(), grid.cell_size_km(), alpha_},
          [this] { return BuildEmission(grid_, alpha_); })) {}

std::string PlanarLaplaceMechanism::name() const {
  return StrFormat("%s-PLM", FormatDouble(alpha_).c_str());
}

int PlanarLaplaceMechanism::SampleContinuous(int true_cell, Rng& rng) const {
  PRISTE_CHECK(grid_.ContainsCell(true_cell));
  if (alpha_ <= 0.0) {
    return static_cast<int>(rng.NextBelow(grid_.num_cells()));
  }
  const geo::PointKm center = grid_.CenterOf(true_cell);
  const double theta = rng.Uniform(0.0, 2.0 * std::numbers::pi);
  // Radial density of the planar Laplace is r·α²·e^{−αr} ⇒ Gamma(2, 1/α).
  const double r = (rng.NextExponential(1.0) + rng.NextExponential(1.0)) / alpha_;
  const geo::PointKm sample{center.x + r * std::cos(theta),
                            center.y + r * std::sin(theta)};
  return grid_.CellContaining(sample);
}

}  // namespace priste::lppm
