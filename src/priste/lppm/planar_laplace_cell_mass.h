#ifndef PRISTE_LPPM_PLANAR_LAPLACE_CELL_MASS_H_
#define PRISTE_LPPM_PLANAR_LAPLACE_CELL_MASS_H_

#include <algorithm>
#include <cmath>
#include <numbers>

#include "priste/common/check.h"

namespace priste::lppm::detail {

/// Mass of the continuous planar-Laplace noise — density (α²/2π)·e^{−α·|p|}
/// around the origin — over an axis-aligned rectangle. PlanarLaplaceMechanism
/// builds its emission from it; tests use it as a per-entry oracle.
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

}  // namespace priste::lppm::detail

#endif  // PRISTE_LPPM_PLANAR_LAPLACE_CELL_MASS_H_
