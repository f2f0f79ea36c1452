#include "priste/lppm/emission_cache.h"

#include <atomic>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "priste/common/metrics.h"
#include "priste/common/parallel_for.h"
#include "priste/geo/grid.h"
#include "priste/lppm/mechanism_family.h"
#include "priste/lppm/planar_laplace.h"

namespace priste::lppm {
namespace {

// The shared cache is process-wide state; every test restores the capacity
// it perturbs so suite order never matters.
class EmissionCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EmissionCache::Shared().Clear();
    saved_capacity_ = EmissionCache::Shared().capacity_bytes();
  }
  void TearDown() override {
    EmissionCache::Shared().SetCapacityBytes(saved_capacity_);
    EmissionCache::Shared().Clear();
  }

  size_t saved_capacity_ = 0;
};

long CounterValue(const std::string& name) {
  return MetricsRegistry::Global().GetCounter(name).value();
}

long GaugeValue(const std::string& name) {
  return MetricsRegistry::Global().GetGauge(name).value();
}

TEST_F(EmissionCacheTest, BudgetLadderIsServedFromTheCache) {
  // Algorithm 2 halves its budget on every failed check, so the cache sees
  // one ladder 0.5·2⁻ᵏ per grid. Halving a double changes only exponent
  // bits, so a per-byte hash modulo a small shard count sent every rung to
  // one shard, and a cache with room for eight matrices thrashed on seven.
  const geo::Grid grid(6, 6, 1.0);
  EmissionCache& cache = EmissionCache::Shared();
  cache.SetCapacityBytes(
      8 * EmissionCache::ChargeBytes(PlanarLaplaceMechanism(grid, 0.5).emission()));
  cache.Clear();
  const auto build_ladder = [&grid] {
    for (int k = 0; k <= 6; ++k) {
      const PlanarLaplaceMechanism plm(grid, std::ldexp(0.5, -k));
      EXPECT_GT(plm.emission()(0, 0), 0.0);
    }
  };
  build_ladder();
  const long hits0 = CounterValue("cache.emission.hits");
  const long misses0 = CounterValue("cache.emission.misses");
  const long evictions0 = CounterValue("cache.emission.evictions");
  build_ladder();
  EXPECT_EQ(CounterValue("cache.emission.hits") - hits0, 7);
  EXPECT_EQ(CounterValue("cache.emission.misses") - misses0, 0);
  EXPECT_EQ(CounterValue("cache.emission.evictions") - evictions0, 0);
}

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

  EmissionCache::Shared().SetCapacityBytes(0);  // the off switch
  const PlanarLaplaceMechanism fresh(grid, 0.7);
  EmissionCache::Shared().SetCapacityBytes(saved_capacity_);

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

// --- The LRU itself, on a private cache of tiny matrices -------------------

// A 2×2 matrix that identifies its tag through entry (0, 0).
hmm::EmissionMatrix MatrixFor(int tag) {
  const double p = 1.0 / (tag + 2);
  return *hmm::EmissionMatrix::CreateNormalized(
      linalg::Matrix{{p, 1.0 - p}, {0.5, 0.5}});
}

const size_t kCharge = EmissionCache::ChargeBytes(MatrixFor(0));

// GetOrBuild for `tag`, counting the builds it runs in `*builds`.
EmissionCache::Handle Get(EmissionCache& cache, int tag, int* builds = nullptr) {
  return cache.GetOrBuild(
      EmissionKey{EmissionKey::Kind::kPlanarLaplace, 2, 1, 1.0,
                  static_cast<double>(tag)},
      [tag, builds] {
        if (builds != nullptr) ++*builds;
        return MatrixFor(tag);
      });
}

bool Holds(const EmissionCache::Handle& handle, int tag) {
  return handle != nullptr && (*handle)(0, 0) == 1.0 / (tag + 2);
}

TEST(PrivateEmissionCacheTest, EvictsLeastRecentlyUsed) {
  EmissionCache cache("test.lru.order", 2 * kCharge);
  int builds = 0;
  const EmissionCache::Handle first = Get(cache, 1, &builds);
  EXPECT_EQ(Get(cache, 1, &builds).get(), first.get());  // served, not rebuilt
  (void)Get(cache, 2, &builds);
  (void)Get(cache, 1, &builds);  // 1 becomes most recent, 2 least
  (void)Get(cache, 3, &builds);  // over capacity: evicts 2
  EXPECT_EQ(builds, 3);
  EXPECT_TRUE(Holds(Get(cache, 1, &builds), 1));
  EXPECT_TRUE(Holds(Get(cache, 3, &builds), 3));
  EXPECT_EQ(builds, 3);
  EXPECT_TRUE(Holds(Get(cache, 2, &builds), 2));
  EXPECT_EQ(builds, 4);
}

TEST(PrivateEmissionCacheTest, HandleOutlivesEviction) {
  EmissionCache cache("test.lru.pin", kCharge);
  int builds = 0;
  const EmissionCache::Handle pinned = Get(cache, 1, &builds);
  (void)Get(cache, 2, &builds);  // evicts 1
  const EmissionCache::Handle rebuilt = Get(cache, 1, &builds);
  EXPECT_EQ(builds, 3);
  EXPECT_NE(rebuilt.get(), pinned.get());
  // The evicted entry's storage is still alive through the handle.
  EXPECT_TRUE(Holds(pinned, 1));
}

TEST(PrivateEmissionCacheTest, OverCapacityValueIsReturnedButNotRetained) {
  EmissionCache cache("test.lru.huge", kCharge - 1);
  int builds = 0;
  EXPECT_TRUE(Holds(Get(cache, 1, &builds), 1));
  EXPECT_TRUE(Holds(Get(cache, 1, &builds), 1));
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(GaugeValue("test.lru.huge.bytes"), 0);
}

TEST(PrivateEmissionCacheTest, ZeroCapacityRetainsNothing) {
  EmissionCache cache("test.lru.zero", 0);
  int builds = 0;
  EXPECT_TRUE(Holds(Get(cache, 1, &builds), 1));
  EXPECT_TRUE(Holds(Get(cache, 1, &builds), 1));
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(GaugeValue("test.lru.zero.bytes"), 0);

  // Turning a warm cache off stops its hits at once.
  cache.SetCapacityBytes(4 * kCharge);
  (void)Get(cache, 2, &builds);
  cache.SetCapacityBytes(0);
  (void)Get(cache, 2, &builds);
  EXPECT_EQ(builds, 4);
}

TEST(PrivateEmissionCacheTest, ClearDropsEntriesButKeepsHandles) {
  EmissionCache cache("test.lru.clear", 4 * kCharge);
  int builds = 0;
  const EmissionCache::Handle h = Get(cache, 1, &builds);
  cache.Clear();
  EXPECT_EQ(GaugeValue("test.lru.clear.bytes"), 0);
  (void)Get(cache, 1, &builds);
  EXPECT_EQ(builds, 2);
  EXPECT_TRUE(Holds(h, 1));
}

TEST(PrivateEmissionCacheTest, PublishesCounters) {
  EmissionCache cache("test.lru.metrics", 2 * kCharge);
  const long hits0 = CounterValue("test.lru.metrics.hits");
  const long misses0 = CounterValue("test.lru.metrics.misses");
  const long evictions0 = CounterValue("test.lru.metrics.evictions");
  const long inserts0 = CounterValue("test.lru.metrics.inserts");
  (void)Get(cache, 1);  // miss + insert
  (void)Get(cache, 1);  // hit
  EXPECT_EQ(CounterValue("test.lru.metrics.misses") - misses0, 1);
  EXPECT_EQ(CounterValue("test.lru.metrics.hits") - hits0, 1);
  EXPECT_EQ(CounterValue("test.lru.metrics.inserts") - inserts0, 1);
  EXPECT_EQ(GaugeValue("test.lru.metrics.bytes"), static_cast<long>(kCharge));
  (void)Get(cache, 2);
  (void)Get(cache, 3);  // evicts the least recent entry
  EXPECT_EQ(CounterValue("test.lru.metrics.evictions") - evictions0, 1);
  EXPECT_EQ(CounterValue("test.lru.metrics.inserts") - inserts0, 3);
  EXPECT_EQ(GaugeValue("test.lru.metrics.bytes"), static_cast<long>(2 * kCharge));
  cache.Clear();
  EXPECT_EQ(GaugeValue("test.lru.metrics.bytes"), 0);
}

TEST(PrivateEmissionCacheTest, SetCapacityAppliesOnNextInsert) {
  EmissionCache cache("test.lru.resize", 4 * kCharge);
  (void)Get(cache, 1);
  (void)Get(cache, 2);
  cache.SetCapacityBytes(kCharge);
  EXPECT_EQ(cache.capacity_bytes(), kCharge);
  EXPECT_EQ(GaugeValue("test.lru.resize.bytes"), static_cast<long>(2 * kCharge));
  (void)Get(cache, 3);  // evicts down to the new capacity
  EXPECT_EQ(GaugeValue("test.lru.resize.bytes"), static_cast<long>(kCharge));
}

TEST(PrivateEmissionCacheTest, ConcurrentMixedOperationsStayConsistent) {
  // GetOrBuild races across a keyspace larger than the capacity: every
  // returned handle must carry its key's value, and the retained charge must
  // respect the capacity once the workers quiesce.
  EmissionCache cache("test.lru.race", 8 * kCharge);
  constexpr int kWorkers = 8;
  constexpr int kOpsPerWorker = 4000;
  constexpr int kKeySpace = 64;
  std::atomic<int> mismatches{0};
  ParallelFor(4, kWorkers, [&](size_t w) {
    for (int i = 0; i < kOpsPerWorker; ++i) {
      const int tag = static_cast<int>((w * 131 + static_cast<size_t>(i) * 7) %
                                       kKeySpace);
      if (!Holds(Get(cache, tag), tag)) mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(GaugeValue("test.lru.race.bytes"), static_cast<long>(8 * kCharge));
}

TEST(PrivateEmissionCacheTest, ChurnWithEvictionClearAndHeldHandles) {
  // Room for 8 entries against each worker's 32 keys, so inserts and
  // evictions run concurrently with hits, with a periodic Clear, and with
  // handles the other workers still hold. Eviction must only drop the
  // cache's reference, never the storage behind a live handle.
  EmissionCache cache("test.lru.churn", 8 * kCharge);
  constexpr int kWorkers = 4;
  constexpr int kIters = 400;
  constexpr int kKeySpace = 32;
  std::atomic<int> mismatches{0};
  ParallelFor(kWorkers, kWorkers, [&](size_t w) {
    const int t = static_cast<int>(w);
    std::vector<std::pair<int, EmissionCache::Handle>> held;
    for (int i = 0; i < kIters; ++i) {
      const int tag = (i * 7 + t * 13) % kKeySpace;
      EmissionCache::Handle handle = Get(cache, tag);
      if (!Holds(handle, tag)) mismatches.fetch_add(1, std::memory_order_relaxed);
      held.emplace_back(tag, std::move(handle));
      if (held.size() > 8) held.erase(held.begin());
      for (const auto& [held_tag, h] : held) {
        if (!Holds(h, held_tag)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (i % 100 == 99 && t == 0) cache.Clear();
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace priste::lppm
