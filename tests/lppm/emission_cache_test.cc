#include "priste/lppm/emission_cache.h"

#include <gtest/gtest.h>

#include "priste/common/metrics.h"
#include "priste/geo/grid.h"
#include "priste/lppm/mechanism_family.h"
#include "priste/lppm/planar_laplace.h"

namespace priste::lppm {
namespace {

// The shared cache is process-wide state; every test restores the defaults
// it perturbs so suite order never matters.
class EmissionCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EmissionCache::Shared().Clear();
    EmissionCache::Shared().SetEnabled(true);
    saved_capacity_ = EmissionCache::Shared().capacity_bytes();
  }
  void TearDown() override {
    EmissionCache::Shared().SetCapacityBytes(saved_capacity_);
    EmissionCache::Shared().SetEnabled(true);
    EmissionCache::Shared().Clear();
  }

  size_t saved_capacity_ = 0;
};

TEST_F(EmissionCacheTest, MechanismsWithEqualKeysShareOneMatrix) {
  const geo::Grid grid(6, 6, 1.0);
  const PlanarLaplaceMechanism a(grid, 0.8);
  const PlanarLaplaceMechanism b(grid, 0.8);
  // Same key → literally the same matrix object, not an equal copy.
  EXPECT_EQ(&a.emission(), &b.emission());
  const PlanarLaplaceMechanism c(grid, 0.4);
  EXPECT_NE(&a.emission(), &c.emission());
}

TEST_F(EmissionCacheTest, DistinctGeometriesGetDistinctEntries) {
  const geo::Grid small(6, 6, 1.0);
  const geo::Grid wide(6, 6, 2.0);
  const PlanarLaplaceMechanism a(small, 0.8);
  const PlanarLaplaceMechanism b(wide, 0.8);
  EXPECT_NE(&a.emission(), &b.emission());
  // Cloaking and PLM never collide even at the same (dims, cell, param).
  const CloakingMechanism cloak(small, 0.8);
  EXPECT_NE(&a.emission(), &cloak.emission());
}

TEST_F(EmissionCacheTest, CachedAndUncachedAreBitIdentical) {
  const geo::Grid grid(6, 6, 1.0);
  const PlanarLaplaceMechanism cached(grid, 0.7);

  EmissionCache::Shared().SetEnabled(false);
  const PlanarLaplaceMechanism fresh(grid, 0.7);
  EmissionCache::Shared().SetEnabled(true);

  EXPECT_NE(&cached.emission(), &fresh.emission());
  const size_t m = grid.num_cells();
  for (size_t i = 0; i < m; ++i) {
    for (size_t o = 0; o < m; ++o) {
      // Bit-identical, not approximately equal: the builder is a pure
      // deterministic function of the key.
      EXPECT_EQ(cached.emission()(i, o), fresh.emission()(i, o))
          << "i=" << i << " o=" << o;
    }
  }
}

TEST_F(EmissionCacheTest, EvictionRebuildsBitIdentically) {
  const geo::Grid grid(6, 6, 1.0);
  const PlanarLaplaceMechanism first(grid, 0.9);

  // Capacity below one entry's charge: every insert immediately evicts, so
  // the second construction cannot be served from the cache.
  EmissionCache::Shared().SetCapacityBytes(1);
  EmissionCache::Shared().Clear();
  const PlanarLaplaceMechanism rebuilt(grid, 0.9);
  EXPECT_NE(&first.emission(), &rebuilt.emission());
  const size_t m = grid.num_cells();
  for (size_t i = 0; i < m; ++i) {
    for (size_t o = 0; o < m; ++o) {
      EXPECT_EQ(first.emission()(i, o), rebuilt.emission()(i, o));
    }
  }
  // Both handles stay valid even though neither lives in the cache anymore.
  EXPECT_NEAR(first.emission().OutputDistribution(0).Sum(), 1.0, 1e-9);
  EXPECT_NEAR(rebuilt.emission().OutputDistribution(0).Sum(), 1.0, 1e-9);
}

TEST_F(EmissionCacheTest, CountersTrackHitsAndMisses) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const long hits0 = registry.GetCounter("cache.emission.hits").value();
  const long misses0 = registry.GetCounter("cache.emission.misses").value();

  const geo::Grid grid(5, 5, 1.0);
  const PlanarLaplaceMechanism a(grid, 0.6);  // miss + insert
  const PlanarLaplaceMechanism b(grid, 0.6);  // hit
  (void)a;
  (void)b;
  EXPECT_GE(registry.GetCounter("cache.emission.misses").value() - misses0, 1);
  EXPECT_GE(registry.GetCounter("cache.emission.hits").value() - hits0, 1);
  EXPECT_GT(registry.GetGauge("cache.emission.bytes").value(), 0);
}

TEST_F(EmissionCacheTest, FamilyInstantiationsShareAcrossInstances) {
  // The Algorithm-2 workload: many family instantiations at the same budget
  // ladder, across independent family objects (different "users").
  const geo::Grid grid(5, 5, 1.0);
  const PlanarLaplaceFamily family_a(grid);
  const PlanarLaplaceFamily family_b(grid);
  const auto lppm_a = family_a.Instantiate(0.5);
  const auto lppm_b = family_b.Instantiate(0.5);
  EXPECT_EQ(&lppm_a->emission(), &lppm_b->emission());
}

TEST_F(EmissionCacheTest, ChargeBytesCoversThePayload) {
  const geo::Grid grid(4, 4, 1.0);
  const PlanarLaplaceMechanism mech(grid, 0.5);
  const size_t m = grid.num_cells();
  EXPECT_GE(EmissionCache::ChargeBytes(mech.emission()),
            m * m * sizeof(double));
}

TEST_F(EmissionCacheTest, MapCoveringCloakingRadiiShareOneMatrix) {
  // A 20×20 map of 1 km cells (diameter ≈ 26.9 km) with R = 2 km / budget:
  // budgets 1/16 (R = 32 km) and 1/1024 (R = 2048 km) both put the whole map
  // in every disk, so they share one uniform matrix.
  const geo::Grid grid(20, 20, 1.0);
  const CloakingFamily family(grid, 2.0);
  const auto covering = family.Instantiate(1.0 / 16);
  const auto wider = family.Instantiate(1.0 / 1024);
  EXPECT_EQ(&covering->emission(), &wider->emission());
  const linalg::Matrix& uniform = covering->emission().matrix();
  EXPECT_NEAR(uniform(0, 0), 1.0 / 400.0, 1e-15);
  for (size_t i = 0; i < uniform.rows(); ++i) {
    for (size_t o = 0; o < uniform.cols(); ++o) {
      ASSERT_EQ(uniform(i, o), uniform(0, 0)) << i << "," << o;
    }
  }
  // Each mechanism still reports the radius it was asked for.
  const auto* cloak = dynamic_cast<const CloakingMechanism*>(wider.get());
  ASSERT_NE(cloak, nullptr);
  EXPECT_EQ(cloak->radius_km(), 2048.0);
  EXPECT_EQ(cloak->name(), CloakingMechanism(grid, 2048.0).name());
  EXPECT_NE(cloak->name(), CloakingMechanism(grid, 32.0).name());
  // R = 16 km leaves corners outside some disks: its own entry.
  const auto inner = family.Instantiate(1.0 / 8);
  EXPECT_NE(&inner->emission(), &covering->emission());
}

}  // namespace
}  // namespace priste::lppm
