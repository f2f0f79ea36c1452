#include "priste/lppm/planar_laplace.h"

#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "priste/lppm/geo_ind_audit.h"

namespace priste::lppm {
namespace {

TEST(PlanarLaplaceTest, EmissionIsRowStochastic) {
  const geo::Grid grid(6, 6, 1.0);
  const PlanarLaplaceMechanism plm(grid, 0.5);
  EXPECT_TRUE(plm.emission().matrix().IsRowStochastic(1e-9));
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

TEST(PlanarLaplaceTest, WithAlphaRebuilds) {
  const geo::Grid grid(4, 4, 1.0);
  const PlanarLaplaceMechanism plm(grid, 1.0);
  const PlanarLaplaceMechanism half = plm.WithAlpha(0.5);
  EXPECT_DOUBLE_EQ(half.alpha(), 0.5);
  EXPECT_LT(half.emission()(0, 0), plm.emission()(0, 0));
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

TEST(PlanarLaplaceTest, EmissionRespectsGridSymmetry) {
  // A centered truth on an odd grid sees mirror-symmetric cells with equal
  // probability; the fan quadrature computes each offset independently, so
  // agreement is a real accuracy check (not a cache artifact).
  const geo::Grid grid(5, 5, 1.0);
  const PlanarLaplaceMechanism plm(grid, 0.9);
  const int truth = grid.CellOf(2, 2);
  EXPECT_NEAR(plm.emission()(truth, grid.CellOf(1, 2)),
              plm.emission()(truth, grid.CellOf(3, 2)), 1e-10);
  EXPECT_NEAR(plm.emission()(truth, grid.CellOf(2, 0)),
              plm.emission()(truth, grid.CellOf(2, 4)), 1e-10);
  EXPECT_NEAR(plm.emission()(truth, grid.CellOf(0, 0)),
              plm.emission()(truth, grid.CellOf(4, 4)), 1e-10);
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

TEST(PlanarLaplaceDeathTest, NegativeAlphaFailsBeforeAnyEmissionWork) {
  const geo::Grid grid(4, 4, 1.0);
  EXPECT_DEATH(PlanarLaplaceMechanism(grid, -0.25), "budget must be >= 0");
  EXPECT_DEATH(
      PlanarLaplaceMechanism(grid, std::numeric_limits<double>::quiet_NaN()),
      "budget");
}

}  // namespace
}  // namespace priste::lppm
