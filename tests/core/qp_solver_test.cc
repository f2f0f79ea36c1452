#include "priste/core/qp_solver.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "priste/common/random.h"
#include "priste/core/quantifier.h"
#include "priste/core/two_world.h"
#include "priste/event/presence.h"
#include "priste/geo/gaussian_grid_model.h"
#include "priste/linalg/kernels.h"
#include "priste/lppm/planar_laplace.h"
#include "testing/simd_levels.h"

namespace priste::core {
namespace {

using linalg::kernels::SimdLevel;

linalg::Vector RandomVec(size_t n, Rng& rng, double lo = -1.0, double hi = 1.0) {
  linalg::Vector v(n);
  for (size_t i = 0; i < n; ++i) v[i] = rng.Uniform(lo, hi);
  return v;
}

// Dense random search baseline over the capped simplex.
double RandomSearchMax(const QpSolver::Objective& objective, int samples,
                       Rng& rng) {
  const size_t n = objective.a.size();
  double best = -1e300;
  for (int s = 0; s < samples; ++s) {
    linalg::Vector v = RandomVec(n, rng, 0.0, 1.0);
    // Random sparse-ish candidates too.
    if (s % 3 == 0) {
      for (size_t i = 0; i < n; ++i) {
        if (rng.NextDouble() < 0.5) v[i] = 0.0;
      }
    }
    if (v.Sum() <= 0.0) continue;
    v.ScaleInPlace(1.0 / v.Sum());
    best = std::max(best, objective.Evaluate(v));
  }
  // Vertices of the simplex.
  for (size_t i = 0; i < n; ++i) {
    best = std::max(best, objective.Evaluate(linalg::Vector::Unit(n, i)));
  }
  return best;
}

TEST(QpSolverTest, LinearObjectiveExactOnSimplex) {
  // With a = 0 the objective is linear; the simplex max is the best entry.
  QpSolver::Objective obj;
  obj.a = linalg::Vector(4);
  obj.d = linalg::Vector(4);
  obj.l = linalg::Vector{0.3, -0.2, 0.9, 0.1};
  QpSolver solver;
  const auto result = solver.Maximize(obj, Deadline::Infinite());
  EXPECT_FALSE(result.timed_out);
  EXPECT_NEAR(result.max_value, 0.9, 1e-6);
}

TEST(QpSolverTest, RankOneQuadraticKnownMax) {
  // f(π) = (π·a)² with a = [1, 0]: on the simplex the max is 1 at π = e₀.
  QpSolver::Objective obj;
  obj.a = linalg::Vector{1.0, 0.0};
  obj.d = linalg::Vector{1.0, 0.0};
  obj.l = linalg::Vector(2);
  QpSolver solver;
  const auto result = solver.Maximize(obj, Deadline::Infinite());
  EXPECT_NEAR(result.max_value, 1.0, 1e-6);
}

class QpRandomComparisonTest : public ::testing::TestWithParam<int> {};

TEST_P(QpRandomComparisonTest, BeatsRandomSearch) {
  Rng rng(800 + GetParam());
  const size_t n = 6;
  QpSolver::Objective obj;
  obj.a = RandomVec(n, rng, 0.0, 1.0);  // ā entries are probabilities
  obj.d = RandomVec(n, rng);
  obj.l = RandomVec(n, rng);

  QpSolver solver;
  const auto result = solver.Maximize(obj, Deadline::Infinite());
  EXPECT_FALSE(result.timed_out);

  Rng search_rng(123 + GetParam());
  const double baseline = RandomSearchMax(obj, 20000, search_rng);
  // The solver must find at least as good a maximum (tolerance for the
  // random search occasionally stumbling onto a slightly better point).
  EXPECT_GE(result.max_value, baseline - 1e-4)
      << "solver=" << result.max_value << " search=" << baseline;

  // And its argmax must be feasible and consistent with the reported value.
  EXPECT_NEAR(result.argmax.Sum(), 1.0, 1e-6);
  EXPECT_TRUE(result.argmax.AllInRange(0.0, 1.0, 1e-6));
  EXPECT_NEAR(obj.Evaluate(result.argmax), result.max_value, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Trials, QpRandomComparisonTest, ::testing::Range(0, 15));

TEST(QpSolverTest, ExpiredDeadlineReportsTimeout) {
  Rng rng(5);
  QpSolver::Objective obj;
  obj.a = RandomVec(8, rng, 0.0, 1.0);
  obj.d = RandomVec(8, rng);
  obj.l = RandomVec(8, rng);
  QpSolver solver;
  const auto result = solver.Maximize(obj, Deadline::After(-1.0));
  EXPECT_TRUE(result.timed_out);
}

// A result must be a usable feasible lower bound no matter when the deadline
// fires: finite max_value, a feasible argmax of the right size, and the two
// consistent with each other. Never -inf, never an empty vector.
void ExpectFeasibleResult(const QpSolver::Objective& obj,
                          const QpSolver::Result& result) {
  ASSERT_EQ(result.argmax.size(), obj.a.size());
  EXPECT_TRUE(std::isfinite(result.max_value));
  EXPECT_NEAR(result.argmax.Sum(), 1.0, 1e-9);
  EXPECT_TRUE(result.argmax.AllInRange(0.0, 1.0, 1e-9));
  EXPECT_NEAR(obj.Evaluate(result.argmax), result.max_value, 1e-9);
}

TEST(QpSolverTest, ZeroDeadlineStillReturnsFeasibleBestSoFar) {
  Rng rng(51);
  QpSolver::Objective obj;
  obj.a = RandomVec(12, rng, 0.0, 1.0);
  obj.d = RandomVec(12, rng);
  obj.l = RandomVec(12, rng);
  const auto result = QpSolver().Maximize(obj, Deadline::After(-1.0));
  EXPECT_TRUE(result.timed_out);
  ExpectFeasibleResult(obj, result);
}

TEST(QpSolverTest, MidScanDeadlineStillReturnsFeasibleBestSoFar) {
  // A deadline short enough to fire somewhere inside the edge scan of a
  // large dense problem. Whether it fires before the first row or between
  // two rows depends on wall clock — the invariants must hold either way.
  Rng rng(53);
  const size_t n = 96;
  QpSolver::Objective obj;
  obj.a = RandomVec(n, rng, 0.0, 1.0);
  obj.d = RandomVec(n, rng);
  obj.l = RandomVec(n, rng);
  double best_vertex = -1e300;
  for (size_t i = 0; i < n; ++i) {
    best_vertex = std::max(best_vertex, obj.a[i] * obj.d[i] + obj.l[i]);
  }
  const QpSolver solver;
  for (const double seconds : {1e-7, 1e-4, 2e-3}) {
    const auto result = solver.Maximize(obj, Deadline::After(seconds));
    ExpectFeasibleResult(obj, result);
    // The vertices are scanned before the first deadline check.
    EXPECT_GE(result.max_value, best_vertex - 1e-12);
  }
}

// Maximize with the kernel dispatch forced to `level`'s table.
QpSolver::Result MaximizeOnPath(SimdLevel level, const QpSolver::Objective& obj,
                                const Deadline& deadline) {
  const testing::ScopedSimdLevel path(level);
  return QpSolver().Maximize(obj, deadline);
}

// The tables this host can run, narrowest first.
std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels;
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (level <= linalg::kernels::WidestSimdLevel()) levels.push_back(level);
  }
  return levels;
}

TEST(QpSolverTest, ShortDeadlineTimesOutALargeScanOnEveryTable) {
  // n = 2000 is about two million edges, at least 1 ms of scanning on either
  // path, so a 0.1 ms budget expires inside the scan even though the
  // deadline is read only once per few thousand edges.
  Rng rng(57);
  const size_t n = 2000;
  QpSolver::Objective obj;
  obj.a = RandomVec(n, rng, 0.0, 1.0);
  obj.d = RandomVec(n, rng);
  obj.l = RandomVec(n, rng);
  for (const SimdLevel level : AvailableLevels()) {
    const auto result = MaximizeOnPath(level, obj, Deadline::After(1e-4));
    EXPECT_TRUE(result.timed_out) << linalg::kernels::SimdLevelName(level);
    ExpectFeasibleResult(obj, result);
  }
}

// The two objectives CheckArbitraryPrior maximizes for `raw` at `epsilon`.
std::vector<QpSolver::Objective> TheoremObjectives(const TheoremVectors& raw,
                                                   double epsilon) {
  TheoremVectors v = raw;
  const double scale = v.c_bar.MaxAbs();
  if (scale > 0.0) {
    v.b_bar.ScaleInPlace(1.0 / scale);
    v.c_bar.ScaleInPlace(1.0 / scale);
  }
  const double e_eps = std::exp(epsilon);
  const size_t m = v.a_bar.size();
  QpSolver::Objective f15{v.a_bar, linalg::Vector(m), v.b_bar};
  QpSolver::Objective f16{v.a_bar, linalg::Vector(m), v.b_bar.Scaled(-e_eps)};
  for (size_t i = 0; i < m; ++i) {
    f15.d[i] = (e_eps - 1.0) * v.b_bar[i] - e_eps * v.c_bar[i];
    f16.d[i] = (e_eps - 1.0) * v.b_bar[i] + v.c_bar[i];
  }
  return {f15, f16};
}

// Paper-scale Theorem objectives: a 20×20 grid of 1 km cells, σ = 10
// mobility, a PRESENCE event over cells 1–10 at t = 4..8, and every prefix
// of 10-step planar-Laplace histories (α = 0.5 and 0.2, three true cells),
// checked at ε = 0.1 and 0.5. That is n = 400 dense coordinates, so every
// row but the last few runs the dispatched scan. Every table the host runs
// must return the scalar table's argmax and max_value bit for bit.
TEST(QpSolverTest, TheoremObjectivesMaximizeBitIdenticallyOnEveryTable) {
  const geo::Grid grid(20, 20, 1.0);
  const geo::GaussianGridModel mobility(grid, /*sigma=*/10.0);
  const TwoWorldModel model(
      mobility.transition(),
      event::PresenceEvent::Make(grid.num_cells(), /*first_state=*/1,
                                 /*last_state=*/10, /*start=*/4, /*end=*/8));
  const PrivacyQuantifier quantifier(&model);
  Rng rng(1009);
  int edge_maxima = 0;
  for (const double alpha : {0.5, 0.2}) {
    const lppm::PlanarLaplaceMechanism plm(grid, alpha);
    for (const int true_cell : {5, 47, 210}) {
      std::vector<linalg::Vector> history;
      for (int t = 1; t <= 10; ++t) {
        history.push_back(
            plm.emission().EmissionColumn(plm.Perturb(true_cell, rng)));
        const TheoremVectors vectors = quantifier.ComputeVectors(history);
        for (const double epsilon : {0.1, 0.5}) {
          for (const QpSolver::Objective& obj :
               TheoremObjectives(vectors, epsilon)) {
            ASSERT_EQ(obj.a.size(), 400u);
            const auto scalar =
                MaximizeOnPath(SimdLevel::kScalar, obj, Deadline::Infinite());
            ASSERT_FALSE(scalar.timed_out);
            for (const SimdLevel level : AvailableLevels()) {
              if (level == SimdLevel::kScalar) continue;
              const auto simd = MaximizeOnPath(level, obj, Deadline::Infinite());
              ASSERT_FALSE(simd.timed_out);
              const std::string where =
                  std::string(linalg::kernels::SimdLevelName(level)) +
                  " alpha=" + std::to_string(alpha) +
                  " cell=" + std::to_string(true_cell) +
                  " t=" + std::to_string(t) + " eps=" + std::to_string(epsilon);
              EXPECT_EQ(std::memcmp(&scalar.max_value, &simd.max_value,
                                    sizeof(double)),
                        0)
                  << where;
              ASSERT_EQ(simd.argmax.size(), scalar.argmax.size());
              EXPECT_EQ(std::memcmp(scalar.argmax.data(), simd.argmax.data(),
                                    scalar.argmax.size() * sizeof(double)),
                        0)
                  << where;
            }
            edge_maxima +=
                std::count_if(scalar.argmax.begin(), scalar.argmax.end(),
                              [](double p) { return p != 0.0; }) == 2;
          }
        }
      }
    }
  }
  // Some maxima sit inside an edge (7 of the 240 here), so the edge choice
  // itself is compared, not only the vertex scan.
  EXPECT_GT(edge_maxima, 0);
}

// --- Coordinates with d_i = l_i = 0. ---

// Builds an objective supported on `support` of the n coordinates.
QpSolver::Objective SparseObjective(size_t n, const std::vector<size_t>& support,
                                    Rng& rng) {
  QpSolver::Objective obj;
  obj.a = linalg::Vector(n);
  obj.d = linalg::Vector(n);
  obj.l = linalg::Vector(n);
  for (const size_t i : support) {
    obj.a[i] = rng.Uniform(0.0, 1.0);
    obj.d[i] = rng.Uniform(-1.0, 1.0);
    obj.l[i] = rng.Uniform(-1.0, 1.0);
  }
  return obj;
}

TEST(SupportAwareTest, DefaultOptionsBeatRandomSearchOnSparseObjective) {
  Rng rng(61);
  const size_t n = 30;
  std::vector<size_t> support = {2, 7, 11, 19, 23};
  const QpSolver::Objective obj = SparseObjective(n, support, rng);
  const auto result = QpSolver().Maximize(obj, Deadline::Infinite());
  EXPECT_FALSE(result.timed_out);
  Rng search_rng(62);
  const double baseline = RandomSearchMax(obj, 20000, search_rng);
  EXPECT_GE(result.max_value, baseline - 1e-4);
  EXPECT_NEAR(result.argmax.Sum(), 1.0, 1e-6);
  EXPECT_TRUE(result.argmax.AllInRange(0.0, 1.0, 1e-6));
}

TEST(SupportAwareTest, AllZeroObjectiveIsHandledInClosedForm) {
  QpSolver::Objective obj;
  obj.a = linalg::Vector(6);
  obj.d = linalg::Vector(6);
  obj.l = linalg::Vector(6);
  const auto simplex = QpSolver().Maximize(obj, Deadline::Infinite());
  EXPECT_FALSE(simplex.timed_out);
  EXPECT_NEAR(simplex.max_value, 0.0, 1e-12);
  EXPECT_NEAR(simplex.argmax.Sum(), 1.0, 1e-9);
  EXPECT_TRUE(simplex.argmax.AllInRange(0.0, 1.0, 1e-9));
}

// --- Exactness. ---

// Calls `visit` on every point of the barycentric grid
// {k / resolution : k ∈ ℕⁿ, Σk = resolution}, filling pi[next..] with the
// `left` grid units not yet placed.
void VisitGrid(int resolution, size_t next, int left, linalg::Vector* pi,
               const std::function<void(const linalg::Vector&)>& visit) {
  if (next + 1 == pi->size()) {
    (*pi)[next] = static_cast<double>(left) / resolution;
    visit(*pi);
    return;
  }
  for (int k = 0; k <= left; ++k) {
    (*pi)[next] = static_cast<double>(k) / resolution;
    VisitGrid(resolution, next + 1, left - k, pi, visit);
  }
}

class ExactMaximumTest : public ::testing::TestWithParam<int> {};

// Differential check against brute force on random objectives over n ≤ 6
// coordinates, some with d_i = l_i = 0 (the ones the solver reduces to
// their smallest-a and largest-a members): no point of a dense barycentric
// grid and no Dirichlet draw may beat the reported maximum, which must be
// the value of a feasible, at most 2-sparse argmax.
TEST_P(ExactMaximumTest, NoSimplexSampleExceedsTheMaximum) {
  Rng rng(9100 + GetParam());
  const size_t n = 1 + rng.NextBelow(6);
  QpSolver::Objective obj;
  obj.a = RandomVec(n, rng);
  obj.d = RandomVec(n, rng);
  obj.l = RandomVec(n, rng);
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextDouble() < 0.4) {
      obj.d[i] = 0.0;
      obj.l[i] = 0.0;
    }
  }
  const auto result = QpSolver().Maximize(obj, Deadline::Infinite());
  ASSERT_FALSE(result.timed_out);
  ASSERT_EQ(result.argmax.size(), n);
  EXPECT_TRUE(result.argmax.AllInRange(0.0, 1.0, 0.0));
  EXPECT_NEAR(result.argmax.Sum(), 1.0, 1e-15);
  EXPECT_LE(std::count_if(result.argmax.begin(), result.argmax.end(),
                          [](double p) { return p != 0.0; }),
            2);
  EXPECT_EQ(obj.Evaluate(result.argmax), result.max_value);

  double best_sample = -1e300;
  linalg::Vector pi(n);
  VisitGrid(24, 0, 24, &pi, [&](const linalg::Vector& p) {
    best_sample = std::max(best_sample, obj.Evaluate(p));
  });
  for (int draw = 0; draw < 20000; ++draw) {
    for (size_t i = 0; i < n; ++i) pi[i] = rng.NextExponential(1.0);
    pi.ScaleInPlace(1.0 / pi.Sum());
    best_sample = std::max(best_sample, obj.Evaluate(pi));
  }
  EXPECT_LE(best_sample, result.max_value + 1e-12)
      << "n=" << n << " max=" << result.max_value;
}

INSTANTIATE_TEST_SUITE_P(Trials, ExactMaximumTest, ::testing::Range(0, 40));

// At the paper-figure search settings the former slice-grid / projected-
// gradient search returned −0.00260124 here (the value at e₂) and so
// certified a condition whose true maximum, at the vertex e₀, is positive.
TEST(QpSolverTest, FindsThePositiveVertexTheSliceSearchMissed) {
  QpSolver::Options options;
  options.grid_points = 33;
  options.refine_iters = 12;
  options.pga_restarts = 2;
  options.pga_iters = 60;
  QpSolver::Objective obj;
  obj.a = linalg::Vector{0.13687894379232793, 0.0013727588524197274,
                         0.82974386494369823};
  obj.d = linalg::Vector{-1.2398238501196377, -0.68049494962565416,
                         -0.25707772996103784};
  obj.l = linalg::Vector{0.17555454527880987, -0.80247150988644067,
                         0.21070743183094143};
  const auto result = QpSolver(options).Maximize(obj, Deadline::Infinite());
  EXPECT_FALSE(result.timed_out);
  EXPECT_GT(result.max_value, 0.0);
  EXPECT_NEAR(result.max_value, 0.00584877, 1e-8);
  EXPECT_EQ(result.argmax[0], 1.0);
}
}  // namespace
}  // namespace priste::core
