// Reproducibility guarantees: the RNG is bit-stable across platforms (it is
// implemented from scratch for exactly this reason) and full PriSTE runs are
// deterministic given a seed — a property both the benchmarks and downstream
// experiment pipelines rely on.
#include <memory>

#include <gtest/gtest.h>

#include "priste/common/random.h"
#include "priste/core/priste_geo_ind.h"
#include "priste/event/presence.h"
#include "priste/geo/gaussian_grid_model.h"

namespace priste {
namespace {

TEST(DeterminismTest, RngGoldenValues) {
  // Golden values pin the xoshiro256** + SplitMix64 seeding. If these move,
  // every recorded experiment changes meaning — treat failures as breaking.
  Rng rng(42);
  EXPECT_EQ(rng.NextUint64(), 1546998764402558742ULL);
  EXPECT_EQ(rng.NextUint64(), 6990951692964543102ULL);
  Rng rng2(42);
  EXPECT_EQ(rng2.NextUint64(), 1546998764402558742ULL);
}

TEST(DeterminismTest, RngDoubleGolden) {
  Rng rng(7);
  const double first = rng.NextDouble();
  Rng rng2(7);
  EXPECT_EQ(first, rng2.NextDouble());
  EXPECT_GE(first, 0.0);
  EXPECT_LT(first, 1.0);
}

TEST(DeterminismTest, FullRunIsSeedDeterministic) {
  const geo::Grid grid(4, 4, 1.0);
  const geo::GaussianGridModel mobility(grid, 1.0);
  const auto ev = std::make_shared<event::PresenceEvent>(
      geo::Region(16, {0, 1}), 2, 3);
  core::PristeOptions options;
  options.epsilon = 0.8;
  options.initial_alpha = 0.3;
  const core::PristeGeoInd priste(grid, mobility.transition(), {ev}, options);
  const markov::MarkovChain chain = mobility.ChainUniformStart();

  const auto run_once = [&](uint64_t seed) {
    Rng rng(seed);
    const geo::Trajectory truth(chain.Sample(5, rng));
    const auto result = priste.Run(truth, rng);
    PRISTE_CHECK(result.ok());
    return std::make_pair(truth.states(), result->released.states());
  };

  const auto [truth_a, released_a] = run_once(123);
  const auto [truth_b, released_b] = run_once(123);
  EXPECT_EQ(truth_a, truth_b);
  EXPECT_EQ(released_a, released_b);

  // A different seed must (overwhelmingly likely) differ somewhere.
  const auto [truth_c, released_c] = run_once(124);
  EXPECT_TRUE(truth_a != truth_c || released_a != released_c);
}

TEST(DeterminismTest, QpSolverIsDeterministic) {
  core::QpSolver::Objective obj;
  obj.a = linalg::Vector{0.2, 0.5, 0.9, 0.1};
  obj.d = linalg::Vector{0.3, -0.4, 0.7, 0.2};
  obj.l = linalg::Vector{-0.1, 0.2, 0.05, -0.3};
  const core::QpSolver solver;
  const auto a = solver.Maximize(obj, Deadline::Infinite());
  const auto b = solver.Maximize(obj, Deadline::Infinite());
  EXPECT_EQ(a.max_value, b.max_value);
  EXPECT_LT(a.argmax.Minus(b.argmax).MaxAbs(), 1e-15);
}

}  // namespace
}  // namespace priste
