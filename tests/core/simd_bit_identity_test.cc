#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "priste/core/priste_geo_ind.h"
#include "priste/event/presence.h"
#include "priste/geo/gaussian_grid_model.h"
#include "priste/linalg/kernels.h"

namespace priste::core {
namespace {

// The dispatch layer's end-to-end contract: the scalar and SIMD kernel paths
// produce BIT-identical numbers, so a full PristeGeoInd run — forward/backward
// recursions, release-step caches, QP checks, sampling — must make the exact
// same decisions and release the exact same trajectory under either path. On
// a host without AVX2 both runs take the scalar table and the test is
// trivially green.

struct RunRecord {
  std::vector<int> cells;
  std::vector<double> alphas;
  std::vector<int> halvings;
};

RunRecord RunPipeline(bool simd) {
  const bool previous = linalg::kernels::SetSimdEnabledForTest(simd);
  const geo::Grid grid(4, 4, 1.0);
  const geo::GaussianGridModel model(grid, 1.0);
  const auto ev = std::make_shared<event::PresenceEvent>(
      geo::Region(grid.num_cells(), {0, 1, 4, 5}), /*start=*/3, /*end=*/4);
  PristeOptions options;
  options.epsilon = 0.5;
  options.initial_alpha = 0.4;
  options.qp_threshold_seconds = 5.0;
  const PristeGeoInd priste(grid, model.transition(), {ev}, options);
  Rng rng(21);
  const markov::MarkovChain chain(model.transition(),
                                  linalg::Vector::UniformProbability(16));
  const geo::Trajectory truth(chain.Sample(6, rng));
  const auto result = priste.Run(truth, rng);
  linalg::kernels::SetSimdEnabledForTest(previous);
  EXPECT_TRUE(result.ok()) << result.status();
  RunRecord record;
  if (!result.ok()) return record;
  record.cells = result->released.states();
  for (const auto& step : result->steps) {
    record.alphas.push_back(step.released_alpha);
    record.halvings.push_back(step.halvings);
  }
  return record;
}

TEST(SimdBitIdentityTest, FullPristeGeoIndRunIsBitIdenticalAcrossPaths) {
  const RunRecord scalar = RunPipeline(/*simd=*/false);
  const RunRecord simd = RunPipeline(/*simd=*/true);
  ASSERT_EQ(scalar.cells.size(), simd.cells.size());
  // Exact equality on the doubles, not a tolerance: equal bits in, equal
  // decisions and equal bits out is precisely the kernels' guarantee.
  EXPECT_EQ(scalar.cells, simd.cells);
  EXPECT_EQ(scalar.alphas, simd.alphas);
  EXPECT_EQ(scalar.halvings, simd.halvings);
}

}  // namespace
}  // namespace priste::core
