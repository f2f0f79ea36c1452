#include "priste/eval/experiment.h"

#include <cstdlib>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "priste/event/presence.h"
#include "priste/lppm/mechanism_family.h"

namespace priste::eval {
namespace {

// Every statistic of two repeated-run results, compared bit for bit.
void ExpectSameStats(const RepeatedRunStats& a, const RepeatedRunStats& b) {
  for (const auto field :
       {&RepeatedRunStats::mean_budget, &RepeatedRunStats::euclid_km,
        &RepeatedRunStats::conservative_releases, &RepeatedRunStats::halvings}) {
    EXPECT_EQ((a.*field).count(), (b.*field).count());
    EXPECT_EQ((a.*field).mean(), (b.*field).mean());
    EXPECT_EQ((a.*field).stddev(), (b.*field).stddev());
  }
  ASSERT_EQ(a.budget_per_timestamp.length(), b.budget_per_timestamp.length());
  for (size_t t = 0; t < a.budget_per_timestamp.length(); ++t) {
    EXPECT_EQ(a.budget_per_timestamp.At(t).mean(),
              b.budget_per_timestamp.At(t).mean())
        << "t=" << t;
  }
}

TEST(ExperimentScaleTest, DefaultsAreReduced) {
  // Ensure env vars do not leak into this test.
  unsetenv("PRISTE_FULL");
  unsetenv("PRISTE_RUNS");
  const ExperimentScale scale = ExperimentScale::FromEnv();
  EXPECT_FALSE(scale.full);
  EXPECT_EQ(scale.grid_width, 16);
  EXPECT_EQ(scale.horizon, 30);
}

TEST(ExperimentScaleTest, EnvOverrides) {
  setenv("PRISTE_FULL", "1", 1);
  setenv("PRISTE_RUNS", "7", 1);
  const ExperimentScale scale = ExperimentScale::FromEnv();
  EXPECT_TRUE(scale.full);
  EXPECT_EQ(scale.grid_width, 20);
  EXPECT_EQ(scale.horizon, 50);
  EXPECT_EQ(scale.runs, 7);
  unsetenv("PRISTE_FULL");
  unsetenv("PRISTE_RUNS");
}

TEST(ExperimentScaleTest, FullScaleMatchesPaperDefaults) {
  unsetenv("PRISTE_RUNS");
  setenv("PRISTE_FULL", "1", 1);
  const ExperimentScale scale = ExperimentScale::FromEnv();
  EXPECT_TRUE(scale.full);
  EXPECT_EQ(scale.grid_width, 20);
  EXPECT_EQ(scale.grid_height, 20);
  EXPECT_EQ(scale.horizon, 50);
  EXPECT_EQ(scale.runs, 100);
  // Identity mappings at paper scale, as bench_common.h relies on.
  EXPECT_EQ(scale.MapStateCount(10), 10);
  EXPECT_EQ(scale.MapTimestamp(16), 16);
  unsetenv("PRISTE_FULL");
}

TEST(ExperimentScaleTest, FullZeroOrEmptyMeansReduced) {
  unsetenv("PRISTE_RUNS");
  setenv("PRISTE_FULL", "0", 1);
  EXPECT_FALSE(ExperimentScale::FromEnv().full);
  setenv("PRISTE_FULL", "", 1);
  const ExperimentScale scale = ExperimentScale::FromEnv();
  EXPECT_FALSE(scale.full);
  EXPECT_EQ(scale.grid_width, 16);
  EXPECT_EQ(scale.grid_height, 16);
  EXPECT_EQ(scale.horizon, 30);
  EXPECT_EQ(scale.runs, 3);
  unsetenv("PRISTE_FULL");
}

TEST(ExperimentScaleTest, InvalidEnvValuesFallBackStrictly) {
  // atoi read "2x" as 2 runs and "abc" as 0 runs (tripping the CHECK);
  // the strict parser warns and keeps the defaults instead.
  unsetenv("PRISTE_FULL");
  setenv("PRISTE_RUNS", "2x", 1);
  EXPECT_EQ(ExperimentScale::FromEnv().runs, 3);
  setenv("PRISTE_RUNS", "abc", 1);
  EXPECT_EQ(ExperimentScale::FromEnv().runs, 3);
  setenv("PRISTE_RUNS", "0", 1);  // parses, but runs must be >= 1
  EXPECT_EQ(ExperimentScale::FromEnv().runs, 3);
  setenv("PRISTE_RUNS", "-4", 1);
  EXPECT_EQ(ExperimentScale::FromEnv().runs, 3);
  setenv("PRISTE_FULL", "1x", 1);  // atoi: 1 → full scale; strict: reduced
  EXPECT_FALSE(ExperimentScale::FromEnv().full);
  unsetenv("PRISTE_FULL");
  unsetenv("PRISTE_RUNS");
}

TEST(ExperimentScaleTest, RunsOverrideAppliesAtReducedScale) {
  unsetenv("PRISTE_FULL");
  setenv("PRISTE_RUNS", "11", 1);
  const ExperimentScale scale = ExperimentScale::FromEnv();
  EXPECT_FALSE(scale.full);
  EXPECT_EQ(scale.grid_width, 16);
  EXPECT_EQ(scale.runs, 11);
  unsetenv("PRISTE_RUNS");
}

TEST(ExperimentScaleTest, StateAndTimeMapping) {
  ExperimentScale scale;
  scale.grid_width = 16;
  scale.grid_height = 16;
  scale.horizon = 30;
  // 10 of 400 cells → ceil(10·256/400) = 7 of 256.
  EXPECT_EQ(scale.MapStateCount(10), 7);
  // Identity at paper scale.
  scale.grid_width = scale.grid_height = 20;
  EXPECT_EQ(scale.MapStateCount(10), 10);
  // Timestamp 16 of 50 → ceil(16·30/50) = 10 of 30.
  scale.horizon = 30;
  EXPECT_EQ(scale.MapTimestamp(16), 10);
  scale.horizon = 50;
  EXPECT_EQ(scale.MapTimestamp(16), 16);
}

TEST(ExperimentTest, RepeatedGeoIndRunsAggregate) {
  ExperimentScale scale;
  scale.grid_width = 4;
  scale.grid_height = 4;
  scale.horizon = 5;
  scale.runs = 2;
  const SyntheticWorkload workload(scale, 1.0);
  const auto ev = event::PresenceEvent::Make(workload.grid.num_cells(), 1, 4, 2, 3);
  core::PristeOptions options = DefaultBenchOptions(0.8, 0.3);
  const RepeatedRunStats stats = RunRepeatedGeoInd(
      workload.grid, workload.Chain(), {ev}, options, scale, /*seed=*/42);
  EXPECT_EQ(stats.mean_budget.count(), 2u);
  EXPECT_EQ(stats.halvings.count(), 2u);
  EXPECT_EQ(stats.budget_per_timestamp.length(), 5u);
  EXPECT_GE(stats.euclid_km.mean(), 0.0);
}

TEST(ExperimentTest, RepeatedGeoIndTakesAMechanismFamily) {
  ExperimentScale scale;
  scale.grid_width = 4;
  scale.grid_height = 4;
  scale.horizon = 5;
  scale.runs = 2;
  const SyntheticWorkload workload(scale, 1.0);
  const auto ev = event::PresenceEvent::Make(workload.grid.num_cells(), 1, 4, 2, 3);
  core::PristeOptions options = DefaultBenchOptions(0.8, 0.3);
  options.qp_threshold_seconds = 0.0;  // no wall-clock dependence
  // nullptr means planar Laplace, exactly as an explicit family does.
  const RepeatedRunStats plm = RunRepeatedGeoInd(
      workload.grid, workload.Chain(), {ev}, options, scale, /*seed=*/42);
  ExpectSameStats(
      plm, RunRepeatedGeoInd(
               workload.grid, workload.Chain(), {ev}, options, scale,
               /*seed=*/42,
               std::make_shared<lppm::PlanarLaplaceFamily>(workload.grid)));
  const RepeatedRunStats cloak = RunRepeatedGeoInd(
      workload.grid, workload.Chain(), {ev}, options, scale, /*seed=*/42,
      std::make_shared<lppm::CloakingFamily>(workload.grid));
  EXPECT_EQ(cloak.mean_budget.count(), 2u);
  EXPECT_NE(cloak.euclid_km.mean(), plm.euclid_km.mean());
}

TEST(ExperimentTest, RepeatedDeltaLocRunsAggregate) {
  ExperimentScale scale;
  scale.grid_width = 4;
  scale.grid_height = 4;
  scale.horizon = 5;
  scale.runs = 2;
  const SyntheticWorkload workload(scale, 1.0);
  const auto ev = event::PresenceEvent::Make(workload.grid.num_cells(), 1, 4, 2, 3);
  core::PristeOptions options = DefaultBenchOptions(0.8, 0.3);
  const RepeatedRunStats stats = RunRepeatedDeltaLoc(
      workload.grid, workload.Chain(), {ev}, 0.3, options, scale, /*seed=*/43);
  EXPECT_EQ(stats.mean_budget.count(), 2u);
  EXPECT_EQ(stats.budget_per_timestamp.length(), 5u);
}

TEST(ExperimentTest, RepeatedRunsAreDeterministic) {
  // The repeated runs fan out over ParallelFor; the pre-split RNG streams
  // and in-order aggregation must make the statistics bit-identical between
  // invocations. RepeatedRunsAreThreadCountInvariant below compares thread
  // counts.
  ExperimentScale scale;
  scale.grid_width = 4;
  scale.grid_height = 4;
  scale.horizon = 5;
  scale.runs = 4;
  const SyntheticWorkload workload(scale, 1.0);
  const auto ev = event::PresenceEvent::Make(workload.grid.num_cells(), 1, 4, 2, 3);
  core::PristeOptions options = DefaultBenchOptions(0.8, 0.3);
  options.qp_threshold_seconds = 0.0;  // no wall-clock dependence
  const RepeatedRunStats a = RunRepeatedGeoInd(
      workload.grid, workload.Chain(), {ev}, options, scale, /*seed=*/77);
  const RepeatedRunStats b = RunRepeatedGeoInd(
      workload.grid, workload.Chain(), {ev}, options, scale, /*seed=*/77);
  ExpectSameStats(a, b);
}

// Runs `run` with PRISTE_THREADS set to `threads`, restoring the prior value.
template <typename RunFn>
RepeatedRunStats AtThreads(const char* threads, const RunFn& run) {
  const char* saved = std::getenv("PRISTE_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";
  setenv("PRISTE_THREADS", threads, 1);
  RepeatedRunStats stats = run();
  if (saved != nullptr) {
    setenv("PRISTE_THREADS", saved_value.c_str(), 1);
  } else {
    unsetenv("PRISTE_THREADS");
  }
  return stats;
}

TEST(ExperimentTest, RepeatedRunsAreThreadCountInvariant) {
  // PRISTE_THREADS is read at each ParallelFor call, so one process can
  // compare a serial run with a four-thread one.
  ExperimentScale scale;
  scale.grid_width = 4;
  scale.grid_height = 4;
  scale.horizon = 5;
  scale.runs = 6;
  const SyntheticWorkload workload(scale, 1.0);
  const auto ev = event::PresenceEvent::Make(workload.grid.num_cells(), 1, 4, 2, 3);
  core::PristeOptions options = DefaultBenchOptions(0.8, 0.3);
  options.qp_threshold_seconds = 0.0;  // no wall-clock dependence
  const auto geo_ind = [&] {
    return RunRepeatedGeoInd(workload.grid, workload.Chain(), {ev}, options,
                             scale, /*seed=*/77);
  };
  ExpectSameStats(AtThreads("1", geo_ind), AtThreads("4", geo_ind));
  const auto delta_loc = [&] {
    return RunRepeatedDeltaLoc(workload.grid, workload.Chain(), {ev}, 0.3,
                               options, scale, /*seed=*/78);
  };
  ExpectSameStats(AtThreads("1", delta_loc), AtThreads("4", delta_loc));
}

}  // namespace
}  // namespace priste::eval
