#include "priste/eval/metrics.h"

#include <gtest/gtest.h>

namespace priste::eval {
namespace {

core::RunResult MakeRun() {
  core::RunResult run;
  for (int t = 1; t <= 3; ++t) {
    core::StepRecord step;
    step.released_alpha = 0.1 * t; // 0.1, 0.2, 0.3
    step.halvings = t;
    run.steps.push_back(step);
    run.released.Append(t);        // one cell to the right each time
  }
  return run;
}

TEST(MetricsTest, AlphaSeries) {
  const auto run = MakeRun();
  const std::vector<double> series = AlphaSeries(run);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0], 0.1);
  EXPECT_DOUBLE_EQ(series[2], 0.3);
}

TEST(MetricsTest, MeanReleasedAlpha) {
  EXPECT_NEAR(MeanReleasedAlpha(MakeRun()), 0.2, 1e-12);
}

TEST(MetricsTest, MeanEuclideanError) {
  const geo::Grid grid(8, 1, 2.0);  // 1-row grid, 2 km cells
  const geo::Trajectory truth({0, 1, 2});
  EXPECT_DOUBLE_EQ(MeanEuclideanErrorKm(truth, MakeRun(), grid), 2.0);
}

TEST(MetricsTest, TotalHalvings) {
  EXPECT_EQ(TotalHalvings(MakeRun()), 6);
}

}  // namespace
}  // namespace priste::eval
