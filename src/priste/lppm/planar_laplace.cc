#include "priste/lppm/planar_laplace.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <unordered_map>

#include "priste/common/check.h"
#include "priste/common/strings.h"

namespace priste::lppm {
namespace {

/// Mass of the continuous planar-Laplace noise — density (α²/2π)·e^{−α·|p|}
/// around the origin — over an axis-aligned rectangle.
///
/// For a radially symmetric density the mass over any polygon decomposes into
/// signed origin-fan triangles, and each triangle's 2D integral collapses to a
/// smooth 1D angular integral of the closed-form radial CDF
/// G(R) = 1 − (1+αR)·e^{−αR}: the r = 0 cusp of the density is absorbed
/// analytically, so four adaptive-Simpson edge sweeps give the exact cell mass
/// to quadrature tolerance — including for the rectangle containing the
/// origin.
class PlanarLaplaceCellMass {
 public:
  explicit PlanarLaplaceCellMass(double alpha) : alpha_(alpha) {
    PRISTE_CHECK(alpha > 0.0);
  }

  /// P(noise ∈ [x0, x1] × [y0, y1]); coordinates relative to the origin. The
  /// rectangle's edge lines must not pass through the origin (cell boundaries
  /// never contain a cell center). Degenerate rectangles have mass 0.
  double OverRect(double x0, double x1, double y0, double y1) const {
    if (x0 >= x1 || y0 >= y1) return 0.0;
    // Entirely inside the saturated tail: the radial CDF is 1 to within
    // 1e-17 across the whole rectangle, so the four signed sweeps cancel.
    const double rx = std::max({x0, -x1, 0.0});
    const double ry = std::max({y0, -y1, 0.0});
    if (alpha_ * std::sqrt(rx * rx + ry * ry) > 42.0) return 0.0;
    const double p = EdgeSweep(x0, y0, x1, y0) + EdgeSweep(x1, y0, x1, y1) +
                     EdgeSweep(x1, y1, x0, y1) + EdgeSweep(x0, y1, x0, y0);
    return std::clamp(p, 0.0, 1.0);
  }

 private:
  double RadialCdf(double r) const {
    const double ar = alpha_ * r;
    return 1.0 - (1.0 + ar) * std::exp(-ar);
  }

  // Signed fan-triangle term for the directed edge a → b: the sweep covers
  // the angles between a and b (|Δθ| < π; the edge line misses the origin),
  // and r(φ) is the ray/edge-line intersection distance.
  double EdgeSweep(double ax, double ay, double bx, double by) const {
    const double cross = ax * by - ay * bx;
    const double dot = ax * bx + ay * by;
    const double dtheta = std::atan2(cross, dot);
    if (dtheta == 0.0) return 0.0;
    const double theta_a = std::atan2(ay, ax);
    const double dx = bx - ax;
    const double dy = by - ay;
    const double num = ax * dy - ay * dx;  // cross(a, b − a)
    const auto integrand = [&](double s) {
      const double t = theta_a + s * dtheta;
      const double den = std::cos(t) * dy - std::sin(t) * dx;
      const double r = num / den;
      // Within the open sweep r is finite and positive; the guard only
      // catches floating-point noise at the sweep endpoints.
      if (!std::isfinite(r) || r <= 0.0) return 1.0;
      return RadialCdf(r);
    };
    const double f0 = integrand(0.0);
    const double f05 = integrand(0.5);
    const double f1 = integrand(1.0);
    const double whole = (f0 + 4.0 * f05 + f1) / 6.0;
    const double unit = AdaptiveSimpson(integrand, 0.0, f0, 1.0, f1, 0.5, f05,
                                        whole, 1e-11, 20);
    return unit * dtheta / (2.0 * std::numbers::pi);
  }

  template <typename F>
  static double AdaptiveSimpson(const F& f, double a, double fa, double b,
                                double fb, double m, double fm, double whole,
                                double tol, int depth) {
    const double lm = 0.5 * (a + m);
    const double rm = 0.5 * (m + b);
    const double flm = f(lm);
    const double frm = f(rm);
    const double left = (m - a) / 6.0 * (fa + 4.0 * flm + fm);
    const double right = (b - m) / 6.0 * (fm + 4.0 * frm + fb);
    const double delta = left + right - whole;
    if (depth <= 0 || std::fabs(delta) <= 15.0 * tol) {
      return left + right + delta / 15.0;
    }
    return AdaptiveSimpson(f, a, fa, m, fm, lm, flm, left, 0.5 * tol, depth - 1) +
           AdaptiveSimpson(f, m, fm, b, fb, rm, frm, right, 0.5 * tol, depth - 1);
  }

  double alpha_;
};

/// E(i, o) = Pr(clamp(c_i + noise) ∈ cell o): the *exact* discretization of
/// SampleContinuous. The preimage of an interior cell is the cell itself; a
/// border cell additionally absorbs the clamped off-grid mass, so its
/// preimage extends to infinity across the border sides (truncated at the
/// radius where the remaining tail mass is below 1e-18). Rows are normalized
/// by their quadrature sum (≈ 1 by construction — the preimages tile the
/// plane) so the matrix is exactly row-stochastic.
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
  const PlanarLaplaceCellMass mass(alpha);
  const int w = grid.width();
  const int h = grid.height();
  PRISTE_CHECK_MSG(w < 2000 && h < 2000, "grid too large for offset keying");

  // The mass depends only on the cell offset (Δcol, Δrow) and which border
  // sides cell o clamps — O(w·h) distinct geometries for the m² pairs.
  std::unordered_map<int32_t, double> cache;
  cache.reserve(4 * m);
  linalg::Matrix e(m, m);
  for (size_t i = 0; i < m; ++i) {
    const int ci = grid.ColOf(static_cast<int>(i));
    const int ri = grid.RowOf(static_cast<int>(i));
    double sum = 0.0;
    for (size_t o = 0; o < m; ++o) {
      const int co = grid.ColOf(static_cast<int>(o));
      const int ro = grid.RowOf(static_cast<int>(o));
      const int flags = (co == 0 ? 1 : 0) | (co == w - 1 ? 2 : 0) |
                        (ro == 0 ? 4 : 0) | (ro == h - 1 ? 8 : 0);
      const int32_t key = (((co - ci + 2048) << 16) | ((ro - ri + 2048) << 4) |
                           flags);
      const auto it = cache.find(key);
      double p;
      if (it != cache.end()) {
        p = it->second;
      } else {
        // Preimage bounds relative to the center of cell i: the cell square,
        // border sides extended to (and everything truncated at) the tail
        // radius. (s * offset keeps the bounds a pure function of the key.)
        const double x0 =
            std::max((flags & 1) ? -r_cut : (co - ci - 0.5) * s, -r_cut);
        const double x1 =
            std::min((flags & 2) ? r_cut : (co - ci + 0.5) * s, r_cut);
        const double y0 =
            std::max((flags & 4) ? -r_cut : (ro - ri - 0.5) * s, -r_cut);
        const double y1 =
            std::min((flags & 8) ? r_cut : (ro - ri + 0.5) * s, r_cut);
        p = mass.OverRect(x0, x1, y0, y1);
        cache.emplace(key, p);
      }
      e(i, o) = p;
      sum += p;
    }
    PRISTE_CHECK_MSG(std::fabs(sum - 1.0) < 1e-6,
                     "planar Laplace cell masses do not tile the plane");
    for (size_t o = 0; o < m; ++o) e(i, o) /= sum;
  }
  auto result = hmm::EmissionMatrix::Create(std::move(e));
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
      emission_(EmissionCache::GetOrBuild(
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
