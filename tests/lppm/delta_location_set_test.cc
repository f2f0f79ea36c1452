#include "priste/lppm/delta_location_set.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "testing/test_util.h"

namespace priste::lppm {
namespace {

// The dense m×m build the compact mechanism replaced, kept as its oracle:
// every cell's row is the kernel of its anchor (itself, or the first
// nearest member), normalized, then passed through EmissionMatrix::Create.
int NearestInSet(const geo::Grid& grid, const std::vector<int>& members, int cell) {
  double best = std::numeric_limits<double>::infinity();
  int best_cell = members.front();
  for (int candidate : members) {
    const double d = grid.CellDistanceKm(cell, candidate);
    if (d < best) {
      best = d;
      best_cell = candidate;
    }
  }
  return best_cell;
}

hmm::EmissionMatrix DenseOracle(const geo::Grid& grid, double alpha,
                                const geo::Region& set) {
  const size_t m = grid.num_cells();
  const std::vector<int> members = set.States();
  linalg::Matrix e(m, m);
  for (size_t i = 0; i < m; ++i) {
    const int anchor = set.Contains(static_cast<int>(i))
                           ? static_cast<int>(i)
                           : NearestInSet(grid, members, static_cast<int>(i));
    double sum = 0.0;
    for (int o : members) {
      const double w = alpha <= 0.0
                           ? 1.0
                           : std::exp(-alpha * grid.CellDistanceKm(anchor, o));
      e(i, static_cast<size_t>(o)) = w;
      sum += w;
    }
    for (int o : members) e(i, static_cast<size_t>(o)) /= sum;
  }
  auto result = hmm::EmissionMatrix::Create(std::move(e));
  PRISTE_CHECK(result.ok());
  return std::move(result).value();
}

bool SameBits(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool SameBits(const hmm::EmissionMatrix& a, const hmm::EmissionMatrix& b) {
  const size_t m = a.num_states();
  return b.num_states() == m && a.num_outputs() == m && b.num_outputs() == m &&
         SameBits(a.matrix().RowPtr(0), b.matrix().RowPtr(0), m * m);
}

// Columns, Perturb draws and the lazily expanded matrix against the oracle.
void ExpectMatchesOracle(const geo::Grid& grid, double alpha,
                         const geo::Region& set) {
  SCOPED_TRACE(::testing::Message()
               << grid.width() << "x" << grid.height() << " at "
               << grid.cell_size_km() << " km, alpha " << alpha << ", |dX| "
               << set.Count());
  const DeltaRestrictedPlanarLaplace mech(grid, alpha, set);
  const hmm::EmissionMatrix oracle = DenseOracle(grid, alpha, set);
  const int m = static_cast<int>(grid.num_cells());
  for (int o = 0; o < m; ++o) {
    const linalg::Vector column = mech.EmissionColumn(o);
    const linalg::Vector expected = oracle.EmissionColumn(o);
    ASSERT_EQ(column.size(), expected.size());
    EXPECT_TRUE(SameBits(column.data(), expected.data(), column.size()))
        << "column " << o << (set.Contains(o) ? " (member)" : "");
  }
  Rng rng(17);
  Rng oracle_rng(17);
  for (int draw = 0; draw < 2 * m; ++draw) {
    const int truth = draw % m;
    EXPECT_EQ(mech.Perturb(truth, rng),
              oracle_rng.SampleDiscrete(oracle.OutputDistribution(truth).as_std()))
        << "draw " << draw;
  }
  EXPECT_TRUE(SameBits(mech.emission(), oracle));
}

TEST(DeltaLocationSetTest, CoversRequiredMass) {
  const linalg::Vector prior{0.5, 0.3, 0.1, 0.06, 0.04};
  const auto set = DeltaLocationSet(prior, 0.15);
  ASSERT_TRUE(set.ok());
  // Needs >= 0.85 mass: {0.5, 0.3, 0.1} = 0.9 with 3 cells; 2 cells give 0.8.
  EXPECT_EQ(set->States(), (std::vector<int>{0, 1, 2}));
}

TEST(DeltaLocationSetTest, ZeroDeltaTakesEverythingWithMass) {
  const linalg::Vector prior{0.5, 0.5, 0.0};
  const auto set = DeltaLocationSet(prior, 0.0);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->Count(), 2u);
}

TEST(DeltaLocationSetTest, LargerDeltaSmallerSet) {
  Rng rng(3);
  const linalg::Vector prior = testing::RandomProbability(50, rng);
  const auto small = DeltaLocationSet(prior, 0.05);
  const auto large = DeltaLocationSet(prior, 0.5);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GE(small->Count(), large->Count());
}

TEST(DeltaLocationSetTest, SetIsMinimalForTopHeavyPrior) {
  const linalg::Vector prior{0.96, 0.01, 0.01, 0.01, 0.01};
  const auto set = DeltaLocationSet(prior, 0.05);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->Count(), 1u);
  EXPECT_TRUE(set->Contains(0));
}

TEST(DeltaLocationSetTest, RejectsBadInputs) {
  EXPECT_FALSE(DeltaLocationSet(linalg::Vector{0.5, 0.5}, -0.1).ok());
  EXPECT_FALSE(DeltaLocationSet(linalg::Vector{0.5, 0.5}, 1.0).ok());
  EXPECT_FALSE(DeltaLocationSet(linalg::Vector(), 0.1).ok());
  EXPECT_FALSE(DeltaLocationSet(linalg::Vector{0.9, 0.3}, 0.1).ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(DeltaLocationSet(linalg::Vector{nan, 0.5, 0.5}, 0.1).ok());
  EXPECT_FALSE(DeltaLocationSet(linalg::Vector{0.5, 0.5, nan}, 0.1).ok());
  EXPECT_FALSE(DeltaLocationSet(linalg::Vector{inf, 0.5, 0.5}, 0.1).ok());
}

TEST(DeltaLocationSetTest, DeltaRuleIsHalfOpenUnitInterval) {
  for (const double delta : {0.0, -0.0, 0.2, std::nextafter(1.0, 0.0)}) {
    EXPECT_TRUE(ValidateDelta(delta).ok()) << delta;
  }
  for (const double delta :
       {-0.3, -std::numeric_limits<double>::denorm_min(), 1.0, 1.5,
        std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    const Result<void> rule = ValidateDelta(delta);
    ASSERT_FALSE(rule.ok()) << delta;
    EXPECT_NE(rule.error().message.find("delta must be in [0, 1)"),
              std::string::npos);
    // DeltaLocationSet refuses through the same rule.
    EXPECT_EQ(DeltaLocationSet(linalg::Vector{0.5, 0.5}, delta).error(),
              rule.error());
  }
}

TEST(DeltaRestrictedPlmTest, OutputsConfinedToSet) {
  const geo::Grid grid(4, 4, 1.0);
  const geo::Region set(16, {0, 1, 5});
  const DeltaRestrictedPlanarLaplace mech(grid, 1.0, set);
  const auto& e = mech.emission();
  for (size_t s = 0; s < 16; ++s) {
    for (size_t o = 0; o < 16; ++o) {
      if (!set.Contains(static_cast<int>(o))) {
        EXPECT_DOUBLE_EQ(e(s, o), 0.0) << "state " << s << " output " << o;
      }
    }
    EXPECT_NEAR(e.OutputDistribution(static_cast<int>(s)).Sum(), 1.0, 1e-9);
  }
}

TEST(DeltaRestrictedPlmTest, InSetTruthIsModal) {
  const geo::Grid grid(4, 4, 1.0);
  const geo::Region set(16, {0, 1, 2, 3, 4, 5, 6, 7});
  const DeltaRestrictedPlanarLaplace mech(grid, 2.0, set);
  for (int s : set.States()) {
    EXPECT_EQ(mech.emission().OutputDistribution(s).ArgMax(),
              static_cast<size_t>(s));
  }
}

TEST(DeltaRestrictedPlmTest, OutOfSetStateUsesNearestSurrogate) {
  const geo::Grid grid(4, 1, 1.0);  // cells 0..3 in a row
  const geo::Region set(4, {0, 1});
  const DeltaRestrictedPlanarLaplace mech(grid, 1.0, set);
  // True state 3 is closest to set member 1, so output 1 dominates output 0.
  EXPECT_GT(mech.emission()(3, 1), mech.emission()(3, 0));
}

TEST(DeltaRestrictedPlmTest, ZeroAlphaUniformOverSet) {
  const geo::Grid grid(3, 3, 1.0);
  const geo::Region set(9, {2, 4, 6});
  const DeltaRestrictedPlanarLaplace mech(grid, 0.0, set);
  EXPECT_NEAR(mech.emission()(0, 2), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(mech.emission()(8, 6), 1.0 / 3.0, 1e-12);
}

TEST(DeltaRestrictedPlmTest, PerturbStaysInSet) {
  const geo::Grid grid(4, 4, 1.0);
  const geo::Region set(16, {3, 7, 11});
  const DeltaRestrictedPlanarLaplace mech(grid, 0.7, set);
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(set.Contains(mech.Perturb(i % 16, rng)));
  }
}

TEST(DeltaRestrictedPlmTest, MatchesDenseBuildBitForBit) {
  // 0.3 and 0.17 km centres are not exact in binary, so one integer offset
  // can give several |Δx| doubles; 1×1 is the smallest grid. α = 50 sends
  // far weights to 0, α = 0 is the uniform anchor.
  const geo::Grid grids[] = {geo::Grid(20, 20, 1.0), geo::Grid(20, 20, 0.3),
                             geo::Grid(7, 3, 0.3), geo::Grid(13, 9, 0.17),
                             geo::Grid(1, 1, 1.0)};
  Rng rng(23);
  for (const geo::Grid& grid : grids) {
    const size_t m = grid.num_cells();
    std::vector<geo::Region> sets = {
        geo::Region(m, {static_cast<int>(m / 2)}),
        geo::Region(m).Complement()};
    if (m >= 2) {
      sets.push_back(testing::RandomRegion(m, rng));
      sets.push_back(testing::RandomRegion(m, rng).Complement());
    }
    for (double alpha : {0.0, 1e-4, 0.2, 3.7, 50.0}) {
      for (const geo::Region& set : sets) ExpectMatchesOracle(grid, alpha, set);
    }
  }
}

TEST(DeltaRestrictedPlmTest, FarWeightsUnderflowAtLargeAlpha) {
  // The case the α = 50 oracle rows cover: e^{−50·26.9} is 0 in double.
  const geo::Grid grid(20, 20, 1.0);
  const DeltaRestrictedPlanarLaplace mech(grid, 50.0,
                                          geo::Region(400).Complement());
  EXPECT_EQ(mech.EmissionColumn(0)[399], 0.0);
  EXPECT_GT(mech.EmissionColumn(0)[0], 0.0);
}

TEST(DeltaRestrictedPlmTest, ConcurrentEmissionBuildsOnce) {
  Rng rng(29);
  const geo::Grid grid(13, 9, 0.17);
  const geo::Region set = testing::RandomRegion(grid.num_cells(), rng);
  const DeltaRestrictedPlanarLaplace mech(grid, 0.2, set);
  const hmm::EmissionMatrix oracle = DenseOracle(grid, 0.2, set);
  const hmm::EmissionMatrix* seen[4] = {};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&mech, &seen, t] { seen[t] = &mech.emission(); });
  }
  for (std::thread& thread : threads) thread.join();
  for (const hmm::EmissionMatrix* matrix : seen) {
    EXPECT_EQ(matrix, seen[0]);
    EXPECT_TRUE(SameBits(*matrix, oracle));
  }
}

TEST(DeltaRestrictedPlmDeathTest, BadInputsFailBeforeAnyWork) {
  const geo::Grid grid(4, 4, 1.0);
  const geo::Region set(16, {1, 2});
  EXPECT_DEATH(DeltaRestrictedPlanarLaplace(grid, -0.25, set),
               "budget must be >= 0");
  EXPECT_DEATH(DeltaRestrictedPlanarLaplace(
                   grid, std::numeric_limits<double>::quiet_NaN(), set),
               "budget");
  EXPECT_DEATH(DeltaRestrictedPlanarLaplace(
                   grid, std::numeric_limits<double>::infinity(), set),
               "budget must be finite");
  EXPECT_DEATH(DeltaRestrictedPlanarLaplace(grid, 0.5, geo::Region(8, {1})),
               "span the grid");
  EXPECT_DEATH(DeltaRestrictedPlanarLaplace(grid, 0.5, geo::Region(16)),
               "non-empty");
}

}  // namespace
}  // namespace priste::lppm
