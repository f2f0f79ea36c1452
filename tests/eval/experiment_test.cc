#include "priste/eval/experiment.h"

#include <cstdlib>

#include <gtest/gtest.h>

#include "priste/event/presence.h"

namespace priste::eval {
namespace {

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
  EXPECT_EQ(stats.budget_per_timestamp.length(), 5u);
  EXPECT_GE(stats.euclid_km.mean(), 0.0);
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
  // The repeated runs fan out over the shared thread pool; the pre-split
  // RNG streams and in-order aggregation must make the statistics
  // bit-identical between invocations. Cross-pool-size invariance is
  // exercised by CI re-running the suite at PRISTE_THREADS=1 and =4 (the
  // shared pool is sized once per process, so one test can only see one
  // size) and by common.thread_pool's explicit-pool bit-equality test.
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
  EXPECT_EQ(a.mean_budget.mean(), b.mean_budget.mean());
  EXPECT_EQ(a.euclid_km.mean(), b.euclid_km.mean());
  EXPECT_EQ(a.conservative_releases.mean(), b.conservative_releases.mean());
  ASSERT_EQ(a.budget_per_timestamp.length(), b.budget_per_timestamp.length());
  for (size_t t = 0; t < a.budget_per_timestamp.length(); ++t) {
    EXPECT_EQ(a.budget_per_timestamp.At(t).mean(),
              b.budget_per_timestamp.At(t).mean())
        << "t=" << t;
  }
}

}  // namespace
}  // namespace priste::eval
