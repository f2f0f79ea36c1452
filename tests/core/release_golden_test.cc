#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "priste/core/automaton_world.h"
#include "priste/core/priste_delta_loc.h"
#include "priste/core/priste_geo_ind.h"
#include "priste/event/presence.h"
#include "priste/geo/gaussian_grid_model.h"
#include "priste/lppm/mechanism_family.h"

namespace priste::core {
namespace {

// Golden releases: full runs of Algorithms 2 and 3 whose released cells,
// per-step budgets (compared bit for bit) and halvings are pinned to values
// recorded once from the engine. A change anywhere on the release path — the
// lifted steps, the kernels, the Theorem-vector engine, the QP, the
// mechanisms or the samplers — that moves a single release fails here.
// ctest runs the suite as is, with PRISTE_SIMD=0 (.scalar) and with
// PRISTE_MAX_CACHE_SUPPORT=0 (.coldcache), so one set of values gates the
// SIMD, scalar and cold-chain paths. There is no QP deadline
// (qp_threshold_seconds = 0), so nothing depends on timing.

struct Golden {
  std::vector<int> cells;
  std::vector<double> alphas;  // compared as bit patterns
  std::vector<int> halvings;
  // Which engine path served the checks (ReleaseStepDiagnostics).
  long cached_checks = 0;
  long dense_prefix_checks = 0;
  long cold_checks = 0;
};

// Any PRISTE_MAX_CACHE_SUPPORT override moves checks between the engine's
// paths; the releases must not move, so only the path counters are skipped.
bool PathsOverriddenByEnv() {
  return std::getenv("PRISTE_MAX_CACHE_SUPPORT") != nullptr;
}

void ExpectRelease(const Result<RunResult>& result, const Golden& want) {
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->released.states(), want.cells);
  ASSERT_EQ(result->steps.size(), want.cells.size());
  ASSERT_EQ(want.alphas.size(), want.cells.size());
  ASSERT_EQ(want.halvings.size(), want.cells.size());
  for (size_t i = 0; i < want.cells.size(); ++i) {
    const StepRecord& step = result->steps[i];
    EXPECT_EQ(std::bit_cast<uint64_t>(step.released_alpha),
              std::bit_cast<uint64_t>(want.alphas[i]))
        << "t=" << i + 1 << " released_alpha=" << step.released_alpha;
    EXPECT_EQ(step.halvings, want.halvings[i]) << "t=" << i + 1;
    EXPECT_EQ(step.conservative_timeouts, 0) << "t=" << i + 1;
  }
  if (PathsOverriddenByEnv()) return;
  const ReleaseStepDiagnostics& paths = result->release_diagnostics;
  EXPECT_EQ(paths.cached_checks, want.cached_checks);
  EXPECT_EQ(paths.dense_prefix_checks, want.dense_prefix_checks);
  EXPECT_EQ(paths.cold_checks, want.cold_checks);
}

PristeOptions Options(double initial_alpha, double epsilon = 0.5) {
  PristeOptions options;
  options.epsilon = epsilon;
  options.initial_alpha = initial_alpha;
  options.decay = 0.5;
  options.min_alpha = 1e-4;
  options.qp_threshold_seconds = 0.0;  // no deadline
  return options;
}

// The 6×6 world at 1 km: Gaussian mobility σ = 10 (a dense chain) from a
// uniform start, PRESENCE(S = {1:10}, T = {4:8}), and a 10-step truth. With
// T < 2m, dense first columns leave every check to the cold chain.
struct SixBySix {
  geo::Grid grid{6, 6, 1.0};
  geo::GaussianGridModel mobility{grid, 10.0};
  event::EventPtr event = event::PresenceEvent::Make(36, 1, 10, 4, 8);
  geo::Trajectory truth;

  SixBySix() {
    Rng rng(2024);
    truth = geo::Trajectory(mobility.ChainUniformStart().Sample(10, rng));
  }
};

TEST(ReleaseGoldenTest, TruthSampleIsPinned) {
  const SixBySix world;
  EXPECT_EQ(world.truth.states(),
            (std::vector<int>{2, 27, 2, 5, 27, 9, 13, 9, 19, 1}));
}

TEST(ReleaseGoldenTest, PlanarLaplaceOnTheColdChain) {
  const SixBySix world;
  const PristeGeoInd priste(world.grid, world.mobility.transition(),
                            {world.event}, Options(0.5));
  Rng rng(7);
  ExpectRelease(priste.Run(world.truth, rng),
                {.cells = {11, 17, 20, 35, 35, 0, 6, 12, 30, 30},
                 .alphas = {0.5, 0.5, 0.5, 0.5, 0.25, 0.5, 0.25, 0.25, 0.5,
                            0.5},
                 .halvings = {0, 0, 0, 0, 1, 0, 1, 1, 0, 0},
                 .cached_checks = 1,
                 .cold_checks = 12});
}

TEST(ReleaseGoldenTest, CloakingOnTheSparsePrefixRows) {
  // Bounded-support cloaking columns put the engine on its sparse rows.
  const SixBySix world;
  const PristeGeoInd priste(
      world.grid,
      {std::make_shared<TwoWorldModel>(world.mobility.transition(),
                                       world.event)},
      Options(1.0), std::make_shared<lppm::CloakingFamily>(world.grid, 2.0));
  Rng rng(7);
  ExpectRelease(priste.Run(world.truth, rng),
                {.cells = {8, 22, 9, 17, 2, 12, 18, 14, 31, 13},
                 .alphas = {1.0, 1.0, 1.0, 1.0, 0.25, 0.5, 0.5, 1.0, 1.0, 1.0},
                 .halvings = {0, 0, 0, 0, 2, 1, 1, 0, 0, 0},
                 .cached_checks = 14});
}

TEST(ReleaseGoldenTest, DeltaLocationSetOnTheColdChain) {
  const SixBySix world;
  const PristeDeltaLoc priste(world.grid, world.mobility.transition(),
                              {world.event}, /*delta=*/0.2,
                              linalg::Vector::UniformProbability(36),
                              Options(0.2, /*epsilon=*/0.1));
  Rng rng(7);
  ExpectRelease(priste.Run(world.truth, rng),
                {.cells = {22, 14, 25, 34, 7, 12, 18, 22, 32, 28},
                 .alphas = {0.2, 0.2, 0.2, 0.1, 0.1, 0.1, 0.1, 0.2, 0.2, 0.2},
                 .halvings = {0, 0, 0, 1, 1, 1, 1, 0, 0, 0},
                 .cached_checks = 1,
                 .cold_checks = 13});
}

TEST(ReleaseGoldenTest, AutomatonEventOnTheColdChain) {
  // "In s1..s4 at least twice during t = 3..5": some pair of window
  // timestamps both inside cells 0..3.
  const SixBySix world;
  const auto inside = [](int t) {
    std::vector<event::BoolExpr::Ptr> cells;
    for (int c = 0; c < 4; ++c) cells.push_back(event::BoolExpr::Pred(t, c));
    return event::BoolExpr::OrAll(cells);
  };
  std::vector<event::BoolExpr::Ptr> pairs;
  for (int t1 = 3; t1 <= 5; ++t1) {
    for (int t2 = t1 + 1; t2 <= 5; ++t2) {
      pairs.push_back(event::BoolExpr::And(inside(t1), inside(t2)));
    }
  }
  auto model = AutomatonWorldModel::Create(
      markov::TransitionSchedule::Homogeneous(world.mobility.transition()),
      *event::BoolExpr::OrAll(pairs));
  ASSERT_TRUE(model.ok()) << model.status();
  const PristeGeoInd priste(world.grid, {*model}, Options(0.5));
  Rng rng(7);
  ExpectRelease(priste.Run(world.truth, rng),
                {.cells = {11, 17, 20, 0, 5, 5, 1, 11, 30, 30},
                 .alphas = {0.5, 0.5, 0.5, 0.0625, 0.5, 0.5, 0.5, 0.5, 0.5,
                            0.5},
                 .halvings = {0, 0, 0, 3, 0, 0, 0, 0, 0, 0},
                 .cached_checks = 1,
                 .cold_checks = 12});
}

TEST(ReleaseGoldenTest, PlanarLaplaceOnTheDensePrefixRows) {
  // 4×4 grid, σ = 1, PRESENCE(S = {1:4}, T = {3:6}), a 34-step truth: with
  // T ≥ 2m the engine serves dense columns from its dense-prefix rows.
  const geo::Grid grid(4, 4, 1.0);
  const geo::GaussianGridModel mobility(grid, 1.0);
  Rng truth_rng(99);
  const geo::Trajectory truth(
      mobility.ChainUniformStart().Sample(34, truth_rng));
  const PristeGeoInd priste(grid, mobility.transition(),
                            {event::PresenceEvent::Make(16, 1, 4, 3, 6)},
                            Options(0.5));
  Rng rng(7);
  std::vector<double> alphas(34, 0.5);
  for (const int t : {1, 5, 6}) alphas[t - 1] = 0.25;
  for (const int t : {3, 8}) alphas[t - 1] = 0.125;
  std::vector<int> halvings(34, 0);
  for (const int t : {1, 5, 6}) halvings[t - 1] = 1;
  for (const int t : {3, 8}) halvings[t - 1] = 2;
  ExpectRelease(priste.Run(truth, rng),
                {.cells = {2, 14, 15, 0, 8,  12, 12, 3, 7, 3,  8, 0,
                           0, 0,  5,  7, 2,  12, 1,  0, 8, 0,  8, 0,
                           3, 13, 15, 14, 4, 2, 7, 13, 15, 14},
                 .alphas = alphas,
                 .halvings = halvings,
                 .cached_checks = 2,
                 .dense_prefix_checks = 39});
}

}  // namespace
}  // namespace priste::core
