#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "priste/core/priste_delta_loc.h"
#include "priste/core/priste_geo_ind.h"
#include "priste/event/presence.h"
#include "priste/geo/gaussian_grid_model.h"
#include "priste/linalg/kernels.h"
#include "testing/simd_levels.h"

namespace priste::core {
namespace {

using linalg::kernels::SimdLevel;

// The dispatch layer's end-to-end contract: the scalar, AVX2 and AVX-512
// kernel tables produce BIT-identical numbers, so a full PristeGeoInd or
// PristeDeltaLoc run — forward/backward recursions, release-step caches, the
// cold Theorem vector chain, QP checks, sampling — must make the exact same
// decisions and release the exact same trajectory under every table. Each
// test runs its pipeline under the scalar table and under the parameter's;
// a table the host cannot run is skipped with a message.

struct RunRecord {
  std::vector<int> cells;
  std::vector<double> alphas;
  std::vector<int> halvings;
  long cold_checks = 0;
};

enum class Algorithm { kGeoInd, kDeltaLoc };  // Algorithms 2 and 3

// A 6-step run on a side×side grid (Gaussian σ = 1, dense chain) with a
// PRESENCE event over the top-left 2×2 block at t = 3..4, so the cold
// chain covers both its during-event (Eq. 18) and after-event
// (Eqs. 19/20) forms.
RunRecord RunPipeline(SimdLevel level, int side, Algorithm algorithm) {
  const testing::ScopedSimdLevel path(level);
  const geo::Grid grid(side, side, 1.0);
  const geo::GaussianGridModel model(grid, 1.0);
  const auto ev = std::make_shared<event::PresenceEvent>(
      geo::Region(grid.num_cells(), {0, 1, side, side + 1}), /*start=*/3,
      /*end=*/4);
  PristeOptions options;
  options.epsilon = 0.5;
  options.initial_alpha = 0.4;
  options.qp_threshold_seconds = 5.0;
  const linalg::Vector uniform =
      linalg::Vector::UniformProbability(grid.num_cells());
  Rng rng(21);
  const markov::MarkovChain chain(model.transition(), uniform);
  const geo::Trajectory truth(chain.Sample(6, rng));
  Result<RunResult> result = [&]() -> Result<RunResult> {
    if (algorithm == Algorithm::kGeoInd) {
      const PristeGeoInd priste(grid, model.transition(), {ev}, options);
      return priste.Run(truth, rng);
    }
    // δ-location-set columns are sparse enough for the prefix rows; switch
    // them off so every check runs the cold chain.
    options.release.max_cache_support = 0;
    const PristeDeltaLoc priste(grid, model.transition(), {ev}, /*delta=*/0.2,
                                uniform, options);
    return priste.Run(truth, rng);
  }();
  EXPECT_TRUE(result.ok()) << result.status();
  RunRecord record;
  if (!result.ok()) return record;
  record.cells = result->released.states();
  record.cold_checks = result->release_diagnostics.cold_checks;
  for (const auto& step : result->steps) {
    record.alphas.push_back(step.released_alpha);
    record.halvings.push_back(step.halvings);
  }
  return record;
}

void ExpectBitIdenticalToScalar(SimdLevel level, int side,
                                Algorithm algorithm) {
  const RunRecord scalar = RunPipeline(SimdLevel::kScalar, side, algorithm);
  const RunRecord simd = RunPipeline(level, side, algorithm);
  ASSERT_EQ(scalar.cells.size(), 6u);
  ASSERT_EQ(scalar.cells.size(), simd.cells.size());
  // Dense first columns on a 6-step horizon (and the switched-off prefix
  // rows) leave every check to the cold chain.
  EXPECT_GT(scalar.cold_checks, 0);
  // Exact equality on the doubles, not a tolerance: equal bits in, equal
  // decisions and equal bits out is precisely the kernels' guarantee.
  EXPECT_EQ(scalar.cells, simd.cells);
  EXPECT_EQ(scalar.alphas, simd.alphas);
  EXPECT_EQ(scalar.halvings, simd.halvings);
}

class SimdBitIdentityTest : public testing::SimdLevelTest {};

INSTANTIATE_TEST_SUITE_P(SimdTables, SimdBitIdentityTest, testing::kSimdLevels,
                         testing::SimdLevelParamName);

TEST_P(SimdBitIdentityTest, FullPristeGeoIndRunMatchesScalar) {
  ExpectBitIdenticalToScalar(GetParam(), /*side=*/4, Algorithm::kGeoInd);
}

// m = 25: the row blocks and the four-lane spans both leave a tail.
TEST_P(SimdBitIdentityTest, FiveByFiveGeoIndRunMatchesScalar) {
  ExpectBitIdenticalToScalar(GetParam(), /*side=*/5, Algorithm::kGeoInd);
}

TEST_P(SimdBitIdentityTest, FullPristeDeltaLocRunMatchesScalar) {
  ExpectBitIdenticalToScalar(GetParam(), /*side=*/5, Algorithm::kDeltaLoc);
}

}  // namespace
}  // namespace priste::core
