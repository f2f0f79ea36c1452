#include "priste/lppm/planar_laplace.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "priste/lppm/geo_ind_audit.h"
#include "priste/lppm/planar_laplace_cell_mass.h"

namespace priste::lppm {
namespace {

TEST(PlanarLaplaceTest, EmissionIsRowStochastic) {
  // A side of 2,000 cells needs nothing beyond the m×m matrix itself.
  for (const auto& [w, h, alpha] : {std::tuple{6, 6, 0.5}, std::tuple{2000, 1, 1.0},
                                    std::tuple{1, 2000, 1.0}}) {
    const PlanarLaplaceMechanism plm(geo::Grid(w, h, 1.0), alpha);
    EXPECT_TRUE(plm.emission().matrix().IsRowStochastic(1e-9)) << w << "x" << h;
  }
}

TEST(PlanarLaplaceTest, SatisfiesAlphaGeoIndistinguishability) {
  // The emission is the exact discretization of the clamped continuous
  // mechanism — pure post-processing of an α-geo-indistinguishable mechanism
  // — so the audit must certify the α bound itself (the old center-distance
  // kernel only achieved 2α because its row normalizers broke the pointwise
  // density-ratio argument).
  const geo::Grid grid(5, 5, 1.0);
  for (const double alpha : {0.2, 0.5, 1.0, 3.0}) {
    const PlanarLaplaceMechanism plm(grid, alpha);
    const GeoIndAuditResult audit =
        AuditGeoIndistinguishability(plm.emission(), grid, alpha);
    EXPECT_TRUE(audit.satisfied) << "alpha=" << alpha
                                 << " tightest=" << audit.tightest_alpha;
    EXPECT_LE(audit.tightest_alpha, alpha + 1e-9);
    EXPECT_GT(audit.tightest_alpha, 0.0);
  }
}

TEST(PlanarLaplaceTest, ZeroAlphaIsUniform) {
  const geo::Grid grid(4, 4, 1.0);
  const PlanarLaplaceMechanism plm(grid, 0.0);
  EXPECT_NEAR(plm.emission()(3, 7), 1.0 / 16.0, 1e-12);
  const GeoIndAuditResult audit =
      AuditGeoIndistinguishability(plm.emission(), grid, 0.0);
  EXPECT_TRUE(audit.satisfied);
  EXPECT_NEAR(audit.tightest_alpha, 0.0, 1e-12);
}

TEST(PlanarLaplaceTest, TruthIsModalOutput) {
  const geo::Grid grid(6, 6, 1.0);
  // At a loose budget the clamped mechanism piles so much tail mass onto
  // border cells that a border cell can out-mass a neighbouring truth — a
  // real property of the sampler, so modality is only asserted for interior
  // truths at α = 1 and for every truth at a tight budget.
  const PlanarLaplaceMechanism loose(grid, 1.0);
  for (int col = 2; col <= 3; ++col) {
    for (int row = 2; row <= 3; ++row) {
      const size_t s = static_cast<size_t>(grid.CellOf(col, row));
      EXPECT_EQ(loose.emission().OutputDistribution(static_cast<int>(s)).ArgMax(),
                s);
    }
  }
  const PlanarLaplaceMechanism tight(grid, 2.0);
  for (size_t s = 0; s < grid.num_cells(); ++s) {
    EXPECT_EQ(tight.emission().OutputDistribution(static_cast<int>(s)).ArgMax(),
              s);
  }
}

TEST(PlanarLaplaceTest, LargerAlphaConcentratesOnTruth) {
  const geo::Grid grid(6, 6, 1.0);
  const PlanarLaplaceMechanism loose(grid, 0.2);
  const PlanarLaplaceMechanism tight(grid, 3.0);
  EXPECT_GT(tight.emission()(10, 10), loose.emission()(10, 10));
}

TEST(PlanarLaplaceTest, PerturbMatchesEmissionDistribution) {
  const geo::Grid grid(3, 3, 1.0);
  const PlanarLaplaceMechanism plm(grid, 1.0);
  Rng rng(3);
  const int truth = 4;
  std::vector<int> counts(9, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<size_t>(plm.Perturb(truth, rng))];
  const linalg::Vector expected = plm.emission().OutputDistribution(truth);
  for (size_t o = 0; o < 9; ++o) {
    EXPECT_NEAR(counts[o] / static_cast<double>(n), expected[o], 0.01);
  }
}

TEST(PlanarLaplaceTest, ContinuousSamplerStaysNearTruthForLargeAlpha) {
  const geo::Grid grid(10, 10, 1.0);
  const PlanarLaplaceMechanism plm(grid, 5.0);
  Rng rng(5);
  const int truth = grid.CellOf(5, 5);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (plm.SampleContinuous(truth, rng) == truth) ++hits;
  }
  // With α=5/km most samples fall in the true 1 km cell.
  EXPECT_GT(hits, n / 2);
}

TEST(PlanarLaplaceTest, ContinuousSamplerUniformAtZeroAlpha) {
  const geo::Grid grid(4, 4, 1.0);
  const PlanarLaplaceMechanism plm(grid, 0.0);
  Rng rng(7);
  std::vector<int> counts(16, 0);
  for (int i = 0; i < 32000; ++i) ++counts[static_cast<size_t>(plm.SampleContinuous(0, rng))];
  for (int c : counts) EXPECT_NEAR(c, 2000, 300);
}

TEST(PlanarLaplaceTest, NameIncludesBudget) {
  const geo::Grid grid(2, 2, 1.0);
  EXPECT_EQ(PlanarLaplaceMechanism(grid, 0.5).name(), "0.5-PLM");
}

TEST(PlanarLaplaceTest, EmissionIsTrueDiscretizationOfContinuousSampler) {
  // Chi-squared agreement between empirical SampleContinuous cell counts and
  // N·E(truth, ·), for an interior, an edge, and a corner truth on a grid
  // small enough that the border cells absorb real clamped mass. The old
  // center-distance kernel fails this wildly at the borders.
  const geo::Grid grid(6, 6, 1.0);
  const PlanarLaplaceMechanism plm(grid, 0.7);
  Rng rng(20260726);
  const int n = 200000;
  for (const int truth :
       {grid.CellOf(2, 3), grid.CellOf(0, 3), grid.CellOf(5, 5)}) {
    std::vector<int> counts(grid.num_cells(), 0);
    for (int i = 0; i < n; ++i) {
      ++counts[static_cast<size_t>(plm.SampleContinuous(truth, rng))];
    }
    const linalg::Vector expected = plm.emission().OutputDistribution(truth);
    double chi2 = 0.0;
    int dof = 0;
    double pooled_expected = 0.0;
    double pooled_observed = 0.0;
    for (size_t o = 0; o < grid.num_cells(); ++o) {
      const double expected_count = expected[o] * n;
      if (expected_count < 10.0) {
        pooled_expected += expected_count;
        pooled_observed += counts[o];
        continue;
      }
      const double diff = counts[o] - expected_count;
      chi2 += diff * diff / expected_count;
      ++dof;
    }
    if (pooled_expected >= 10.0) {
      const double diff = pooled_observed - pooled_expected;
      chi2 += diff * diff / pooled_expected;
      ++dof;
    }
    ASSERT_GT(dof, 10) << "truth=" << truth;
    // ~5-sigma guard above the χ² mean (deterministic seed, so this is a
    // regression bound, not a statistical gamble).
    EXPECT_LT(chi2, dof + 5.0 * std::sqrt(2.0 * dof)) << "truth=" << truth;
  }
}

// Counts the pairs (i, o) whose entry differs in any bit from that of
// (f(i), f(o)).
template <typename Symmetry>
int AsymmetricEntries(const PlanarLaplaceMechanism& plm, Symmetry f) {
  const linalg::Matrix& e = plm.emission().matrix();
  int differing = 0;
  for (int i = 0; i < static_cast<int>(e.rows()); ++i) {
    for (int o = 0; o < static_cast<int>(e.cols()); ++o) {
      const double a = e(static_cast<size_t>(i), static_cast<size_t>(o));
      const double b = e(static_cast<size_t>(f(i)), static_cast<size_t>(f(o)));
      if (std::memcmp(&a, &b, sizeof(double)) != 0) ++differing;
    }
  }
  return differing;
}

TEST(PlanarLaplaceTest, EmissionRespectsGridSymmetry) {
  // The density is radially symmetric and cells are square, so mirroring the
  // grid, or transposing a square one, maps each preimage onto one of equal
  // mass. The build integrates each symmetry class once and sums every row
  // grouped by class, so the symmetries hold bit for bit.
  const geo::Grid grid(7, 5, 1.0);
  const geo::Grid square(6, 6, 1.0);
  const auto mirror_x = [&](int c) {
    return grid.CellOf(grid.width() - 1 - grid.ColOf(c), grid.RowOf(c));
  };
  const auto mirror_y = [&](int c) {
    return grid.CellOf(grid.ColOf(c), grid.height() - 1 - grid.RowOf(c));
  };
  const auto transpose = [&](int c) {
    return square.CellOf(square.RowOf(c), square.ColOf(c));
  };
  for (const double alpha : {1.0, 0.05, 1e-3}) {
    const PlanarLaplaceMechanism plm(grid, alpha);
    EXPECT_EQ(AsymmetricEntries(plm, mirror_x), 0) << "alpha=" << alpha;
    EXPECT_EQ(AsymmetricEntries(plm, mirror_y), 0) << "alpha=" << alpha;
    const PlanarLaplaceMechanism square_plm(square, alpha);
    EXPECT_EQ(AsymmetricEntries(square_plm, transpose), 0) << "alpha=" << alpha;
  }
}

TEST(PlanarLaplaceTest, EmissionMatchesPerEntryQuadrature) {
  // The reference integrates every entry on its own preimage rectangle, in
  // its own orientation, and normalizes each row by its sum in output order:
  // no symmetry keying. The build integrates a mirrored or transposed
  // rectangle in another orientation and sums rows in another order, so the
  // two agree to rounding.
  for (const geo::Grid& grid : {geo::Grid(7, 5, 1.0), geo::Grid(5, 7, 0.3)}) {
    for (const double alpha : {1.0, 0.05, 1e-3}) {
      const PlanarLaplaceMechanism plm(grid, alpha);
      const detail::PlanarLaplaceCellMass mass(alpha);
      const double s = grid.cell_size_km();
      const double r_cut = 45.0 / alpha;
      const int w = grid.width();
      const int h = grid.height();
      const size_t m = grid.num_cells();
      double worst = 0.0;
      for (size_t i = 0; i < m; ++i) {
        const int ci = grid.ColOf(static_cast<int>(i));
        const int ri = grid.RowOf(static_cast<int>(i));
        std::vector<double> row(m);
        double sum = 0.0;
        for (size_t o = 0; o < m; ++o) {
          const int co = grid.ColOf(static_cast<int>(o));
          const int ro = grid.RowOf(static_cast<int>(o));
          const double x0 = co == 0 ? -r_cut : std::max((co - ci - 0.5) * s, -r_cut);
          const double x1 = co == w - 1 ? r_cut : std::min((co - ci + 0.5) * s, r_cut);
          const double y0 = ro == 0 ? -r_cut : std::max((ro - ri - 0.5) * s, -r_cut);
          const double y1 = ro == h - 1 ? r_cut : std::min((ro - ri + 0.5) * s, r_cut);
          row[o] = mass.OverRect(x0, x1, y0, y1);
          sum += row[o];
        }
        for (size_t o = 0; o < m; ++o) {
          worst = std::max(worst, std::fabs(plm.emission()(i, o) - row[o] / sum));
        }
      }
      EXPECT_LE(worst, 1e-15) << grid.width() << "x" << grid.height()
                              << " alpha=" << alpha;
    }
  }
}

// True when the mechanism's emission is bit for bit the identity.
bool EmissionIsIdentity(const PlanarLaplaceMechanism& plm) {
  const linalg::Matrix& e = plm.emission().matrix();
  const linalg::Matrix id = hmm::EmissionMatrix::Identity(e.rows()).matrix();
  return e.rows() == id.rows() && e.cols() == id.cols() &&
         std::memcmp(e.RowPtr(0), id.RowPtr(0),
                     e.rows() * e.cols() * sizeof(double)) == 0;
}

TEST(PlanarLaplaceTest, IdentityOnceAlphaTimesCellSizeReachesNinety) {
  // At α·s >= 90 the truncation radius fits inside the own cell, so every
  // row is exactly the identity — what the quadrature returns there as well,
  // until α·s is so large that its products underflow.
  for (const double s : {0.3, 1.0, 2.5}) {
    const geo::Grid grid(5, 4, s);
    for (const double alpha_s : {90.0, 91.0, 1e3, 1e100, 1e158}) {
      const PlanarLaplaceMechanism plm(grid, alpha_s / s);
      EXPECT_TRUE(EmissionIsIdentity(plm)) << "s=" << s
                                           << " alpha*s=" << alpha_s;
    }
    for (const double alpha : {1e170, 1e300}) {
      const PlanarLaplaceMechanism plm(grid, alpha);
      EXPECT_TRUE(EmissionIsIdentity(plm)) << "s=" << s << " alpha=" << alpha;
    }
  }
}

TEST(BudgetRuleTest, AcceptsEveryFiniteBudgetAtLeastZero) {
  for (const double budget :
       {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(), 0.5,
        std::numeric_limits<double>::max()}) {
    EXPECT_TRUE(ValidateBudget(budget).ok()) << budget;
  }
  for (const double budget : {-0.25, -std::numeric_limits<double>::denorm_min(),
                              -std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()}) {
    const Result<void> rule = ValidateBudget(budget);
    ASSERT_FALSE(rule.ok()) << budget;
    EXPECT_NE(rule.error().message.find("budget must be >= 0"),
              std::string::npos);
  }
  const Result<void> inf = ValidateBudget(std::numeric_limits<double>::infinity());
  ASSERT_FALSE(inf.ok());
  EXPECT_NE(inf.error().message.find("budget must be finite"), std::string::npos);
}

// In units of 2^−k km, k = ilogb(α), every length and the budget are the km
// ones times a power of two, so each mass is bit for bit the km mass. The
// emission build relies on this for the benchmark's ladder.
TEST(PlanarLaplaceTest, CellMassIsInvariantUnderPowerOfTwoUnits) {
  for (const double alpha : {0.5, 0.5 / 4096, 0.2 / 64, 0.3, 1e-3, 7.25}) {
    const int k = std::ilogb(alpha);
    const detail::PlanarLaplaceCellMass km(alpha);
    const detail::PlanarLaplaceCellMass scaled(std::ldexp(alpha, -k));
    const double r_cut = 45.0 / alpha;
    for (const double s : {1.0, 0.3}) {
      for (int lo = -4; lo <= 3; ++lo) {
        for (int len = 1; len <= 3; ++len) {
          const double x0 = lo == -4 ? -r_cut : (lo - 0.5) * s;
          const double x1 = (lo + len - 0.5) * s;
          const double y0 = (lo + 1 - 0.5) * s;
          const double y1 = len == 3 ? r_cut : (lo + len + 0.5) * s;
          const double a = km.OverRect(x0, x1, y0, y1);
          const double b = scaled.OverRect(std::ldexp(x0, k), std::ldexp(x1, k),
                                           std::ldexp(y0, k), std::ldexp(y1, k));
          EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
              << "alpha=" << alpha << " s=" << s << " rect " << x0 << ".." << x1
              << " x " << y0 << ".." << y1;
        }
      }
    }
  }
}

TEST(PlanarLaplaceTest, TinyBudgetsReachTheFarFieldLimit) {
  // In km, r_cut = 45/α squared overflowed below α ≈ 3.4e-153 and the build
  // aborted ("cell masses do not tile the plane"); a 4×4 grid aborted below
  // about 6.3e-307. As α → 0 the noise dwarfs the map, so a 1×1 row is {1},
  // and every row of a 4×4 map puts 1/4 on each corner (a quadrant each).
  const PlanarLaplaceMechanism one(geo::Grid(1, 1, 1.0), 1e-153);
  EXPECT_EQ(one.emission()(0, 0), 1.0);
  const geo::Grid grid(4, 4, 1.0);
  const std::vector<int> corners = {0, 3, 12, 15};
  for (const double alpha : {1e-10, 1e-153, 7.1e-307, 3e-307, 1e-320,
                             std::numeric_limits<double>::denorm_min()}) {
    const PlanarLaplaceMechanism plm(grid, alpha);
    for (size_t i = 0; i < grid.num_cells(); ++i) {
      for (size_t o = 0; o < grid.num_cells(); ++o) {
        const bool corner =
            std::find(corners.begin(), corners.end(), static_cast<int>(o)) !=
            corners.end();
        EXPECT_NEAR(plm.emission()(i, o), corner ? 0.25 : 0.0, 1e-7)
            << "alpha=" << alpha << " i=" << i << " o=" << o;
      }
    }
  }
  // A one-column map has two half-planes, on its end cells.
  const PlanarLaplaceMechanism column(geo::Grid(1, 5, 0.3), 1e-300);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(column.emission()(i, 0), 0.5, 1e-7);
    EXPECT_NEAR(column.emission()(i, 4), 0.5, 1e-7);
  }
}

TEST(PlanarLaplaceDeathTest, NegativeAlphaFailsBeforeAnyEmissionWork) {
  const geo::Grid grid(4, 4, 1.0);
  EXPECT_DEATH(PlanarLaplaceMechanism(grid, -0.25), "budget must be >= 0");
  EXPECT_DEATH(
      PlanarLaplaceMechanism(grid, std::numeric_limits<double>::quiet_NaN()),
      "budget");
}

}  // namespace
}  // namespace priste::lppm
