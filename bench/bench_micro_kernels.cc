// google-benchmark microbenchmarks for the library's hot kernels:
// two-world construction, prior evaluation, joint pushes, Theorem-vector
// computation, the QP check, PLM and δ-restricted PLM construction — plus the
// dense-vs-CSR kernel pairs and the serial-vs-parallel driver variants that
// seed the BENCH_micro.json perf trajectory (scripts/bench.sh).
#include <benchmark/benchmark.h>

#include <cmath>
#include <string>

#include "priste/common/check.h"
#include "priste/common/random.h"
#include "priste/common/parallel_for.h"
#include "priste/core/joint.h"
#include "priste/core/prior.h"
#include "priste/core/quantifier.h"
#include "priste/core/release_step.h"
#include "priste/core/two_world.h"
#include "priste/eval/experiment.h"
#include "priste/event/presence.h"
#include "priste/geo/gaussian_grid_model.h"
#include "priste/hmm/forward_backward.h"
#include "priste/linalg/kernels.h"
#include "priste/linalg/row_block.h"
#include "priste/lppm/delta_location_set.h"
#include "priste/lppm/emission_cache.h"
#include "priste/lppm/planar_laplace.h"

namespace {

using namespace priste;

struct Fixture {
  explicit Fixture(int side)
      : grid(side, side, 1.0),
        mobility(grid, 1.0),
        ev(event::PresenceEvent::Make(grid.num_cells(), 1, 8, 3, 5)),
        model(mobility.transition(), ev),
        pi(linalg::Vector::UniformProbability(grid.num_cells())),
        plm(grid, 0.5) {}

  geo::Grid grid;
  geo::GaussianGridModel mobility;
  event::EventPtr ev;
  core::TwoWorldModel model;
  linalg::Vector pi;
  lppm::PlanarLaplaceMechanism plm;
};

Fixture& SharedFixture(int side) {
  static auto* fixtures = new std::map<int, Fixture*>();
  auto it = fixtures->find(side);
  if (it == fixtures->end()) {
    it = fixtures->emplace(side, new Fixture(side)).first;
  }
  return *it->second;
}

void BM_TwoWorldConstruction(benchmark::State& state) {
  Fixture& f = SharedFixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    core::TwoWorldModel model(f.mobility.transition(), f.ev);
    benchmark::DoNotOptimize(model.PriorContraction().Sum());
  }
}
BENCHMARK(BM_TwoWorldConstruction)->Arg(8)->Arg(12)->Arg(16);

void BM_EventPrior(benchmark::State& state) {
  Fixture& f = SharedFixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::EventPrior(f.model, f.pi));
  }
}
BENCHMARK(BM_EventPrior)->Arg(8)->Arg(16);

void BM_JointPush(benchmark::State& state) {
  Fixture& f = SharedFixture(static_cast<int>(state.range(0)));
  const linalg::Vector column = f.plm.emission().EmissionColumn(0);
  for (auto _ : state) {
    core::JointCalculator calc(&f.model, f.pi);
    for (int t = 0; t < 10; ++t) calc.Push(column);
    benchmark::DoNotOptimize(calc.JointEvent());
  }
}
BENCHMARK(BM_JointPush)->Arg(8)->Arg(16);

// The cold Theorem IV.1 chain over an 8-column history past a t = 3..5
// window: β through the post-window steps, then the b̄ and c̄ chains in
// lockstep. Side 20 (m = 400) is the paper-scale shape.
void BM_TheoremVectors(benchmark::State& state) {
  Fixture& f = SharedFixture(static_cast<int>(state.range(0)));
  const core::PrivacyQuantifier quantifier(&f.model);
  const std::vector<linalg::Vector> history(
      8, f.plm.emission().EmissionColumn(3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(quantifier.ComputeVectors(history).b_bar.Sum());
  }
}
BENCHMARK(BM_TheoremVectors)->Arg(8)->Arg(16)->Arg(20);

// One arbitrary-prior check (both Theorem IV.1 conditions) on dense
// planar-Laplace Theorem vectors: the exact edge enumeration runs over all m
// coordinates, so side 20 (m = 400) is the paper-scale plm shape.
void BM_QpCheck(benchmark::State& state) {
  Fixture& f = SharedFixture(static_cast<int>(state.range(0)));
  const core::PrivacyQuantifier quantifier(&f.model);
  const std::vector<linalg::Vector> history(
      5, f.plm.emission().EmissionColumn(3));
  const core::TheoremVectors vectors = quantifier.ComputeVectors(history);
  const core::QpSolver solver;
  for (auto _ : state) {
    const auto check =
        quantifier.CheckArbitraryPrior(vectors, 0.5, solver, Deadline::Infinite());
    benchmark::DoNotOptimize(check.satisfied);
  }
}
BENCHMARK(BM_QpCheck)->Arg(8)->Arg(12)->Arg(20);

// The planar Laplace emission build at budget 0.5·2^−halvings. Halvings 12
// is the slowest budget of the plm workload's ladder: its border preimages
// reach r_cut = 45/α, so each quadrature runs longest.
void BM_PlmEmissionBuild(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const double alpha = std::ldexp(0.5, -static_cast<int>(state.range(1)));
  const geo::Grid grid(side, side, 1.0);
  // The cache would collapse every iteration after the first into a lookup;
  // turn it off so this stays a measurement of the quadrature build itself.
  lppm::EmissionCache& cache = lppm::EmissionCache::Shared();
  const size_t capacity = cache.capacity_bytes();
  cache.SetCapacityBytes(0);
  for (auto _ : state) {
    lppm::PlanarLaplaceMechanism plm(grid, alpha);
    benchmark::DoNotOptimize(plm.emission()(0, 0));
  }
  cache.SetCapacityBytes(capacity);
}
BENCHMARK(BM_PlmEmissionBuild)
    ->ArgNames({"side", "halvings"})
    ->Args({8, 0})
    ->Args({16, 0})
    ->Args({20, 0})
    ->Args({20, 12});

// Algorithm 3's per-candidate mechanism work, as PristeDeltaLoc::Run does
// it: build the δ-restricted PLM over ΔX, draw one release and read its
// emission column (α = 0.2, δ = 0.2). ΔX comes from one Markov prediction of
// a centre point mass under the deltaloc workload's mobility (σ = 10 cells);
// the "members" counter reports |ΔX|.
void BM_DeltaRestrictedBuild(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const geo::Grid grid(side, side, 1.0);
  const geo::GaussianGridModel mobility(grid, /*sigma=*/10.0);
  linalg::Vector point(grid.num_cells());
  point[static_cast<size_t>(grid.CellOf(side / 2, side / 2))] = 1.0;
  const auto set =
      lppm::DeltaLocationSet(mobility.transition().Propagate(point), 0.2);
  PRISTE_CHECK(set.ok());
  const int m = static_cast<int>(grid.num_cells());
  Rng rng(7);
  int truth = 0;
  for (auto _ : state) {
    const lppm::DeltaRestrictedPlanarLaplace mech(grid, 0.2, *set);
    const int o = mech.Perturb(truth, rng);
    benchmark::DoNotOptimize(mech.EmissionColumn(o).data());
    truth = (truth + 1) % m;
  }
  state.counters["members"] = static_cast<double>(set->Count());
}
BENCHMARK(BM_DeltaRestrictedBuild)->Arg(12)->Arg(20)->ArgName("side");

// The PR-6 tentpole acceptance pair: 8 "users" each instantiating the same
// (grid, α) mechanism — the repeated-runs workload of eval::Experiment. With
// the shared cache the first construction builds the quadrature matrix and
// the other 7 take ref-counted handles to it (one miss + 7 hits per
// iteration after a per-iteration Clear); with the cache off (capacity 0)
// all 8 run the full build. Acceptance: cached ≥5× faster, outputs
// bit-identical (checked here once per run).
void BM_SharedEmissionCache(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  const int side = 16;
  const geo::Grid grid(side, side, 1.0);
  constexpr int kUsers = 8;
  lppm::EmissionCache& cache = lppm::EmissionCache::Shared();
  const size_t capacity = cache.capacity_bytes();

  // Bit-identity of the two arms, verified before timing: a cached handle
  // and a cache-off build must agree on every entry.
  {
    cache.Clear();
    const lppm::PlanarLaplaceMechanism warm(grid, 0.5);
    cache.SetCapacityBytes(0);
    const lppm::PlanarLaplaceMechanism cold(grid, 0.5);
    cache.SetCapacityBytes(capacity);
    PRISTE_CHECK(warm.emission().matrix().MaxAbsDiff(cold.emission().matrix()) ==
                 0.0);
  }

  if (!cached) cache.SetCapacityBytes(0);
  for (auto _ : state) {
    if (cached) {
      // Cold start each iteration: one build + (kUsers-1) shared hits.
      state.PauseTiming();
      cache.Clear();
      state.ResumeTiming();
    }
    double acc = 0.0;
    for (int u = 0; u < kUsers; ++u) {
      const lppm::PlanarLaplaceMechanism plm(grid, 0.5);
      acc += plm.emission()(0, 0);
    }
    benchmark::DoNotOptimize(acc);
  }
  cache.SetCapacityBytes(capacity);
  cache.Clear();
}
BENCHMARK(BM_SharedEmissionCache)->Arg(0)->Arg(1)->ArgName("cached")
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Dense vs CSR kernel pairs. The workload is the paper's natural sparse
// chain: a 9-neighbour (Moore) random walk on a side×side grid — ≤9 nonzeros
// per row, so the CSR path does ~nnz work where the dense path sweeps m².
// ---------------------------------------------------------------------------

markov::TransitionMatrix MooreGridWalk(int side, bool allow_sparse) {
  const size_t m = static_cast<size_t>(side) * static_cast<size_t>(side);
  linalg::Matrix t(m, m);
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      const size_t cell = static_cast<size_t>(y * side + x);
      int count = 0;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int nx = x + dx, ny = y + dy;
          if (nx < 0 || nx >= side || ny < 0 || ny >= side) continue;
          ++count;
        }
      }
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int nx = x + dx, ny = y + dy;
          if (nx < 0 || nx >= side || ny < 0 || ny >= side) continue;
          t(cell, static_cast<size_t>(ny * side + nx)) = 1.0 / count;
        }
      }
    }
  }
  auto result = markov::TransitionMatrix::Create(std::move(t), 1e-6, allow_sparse);
  return std::move(result).value();
}

// Propagate on a 1024-state 9-neighbour chain: the ISSUE-2 acceptance pair
// (CSR must be ≥5× faster than dense).
void BM_PropagateDense(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const markov::TransitionMatrix chain = MooreGridWalk(side, /*allow_sparse=*/false);
  const linalg::Vector p = linalg::Vector::UniformProbability(chain.num_states());
  linalg::Vector out(chain.num_states());
  for (auto _ : state) {
    chain.PropagateInto(p, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_PropagateDense)->Arg(16)->Arg(32);

void BM_PropagateSparse(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const markov::TransitionMatrix chain = MooreGridWalk(side, /*allow_sparse=*/true);
  const linalg::Vector p = linalg::Vector::UniformProbability(chain.num_states());
  linalg::Vector out(chain.num_states());
  for (auto _ : state) {
    chain.PropagateInto(p, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_PropagateSparse)->Arg(16)->Arg(32);

// One lifted two-world column step (the quantifier's inner kernel),
// dense vs CSR base chain.
void BM_LiftedStepColumn(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const bool sparse = state.range(1) != 0;
  const markov::TransitionMatrix chain = MooreGridWalk(side, sparse);
  const size_t m = chain.num_states();
  const auto ev = event::PresenceEvent::Make(m, 1, static_cast<int>(m / 4), 3, 5);
  const core::TwoWorldModel model(chain, ev);
  linalg::Vector v = linalg::Vector::Ones(2 * m);
  linalg::Vector out(2 * m);
  for (auto _ : state) {
    model.StepColumnInto(v, 3, out);  // in-window step
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_LiftedStepColumn)
    ->ArgsProduct({{16, 32}, {0, 1}})
    ->ArgNames({"side", "csr"});

// Scaled forward-backward over the sparse chain, dense vs CSR kernels.
void BM_ForwardBackward(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const bool sparse = state.range(1) != 0;
  const markov::TransitionMatrix chain = MooreGridWalk(side, sparse);
  const size_t m = chain.num_states();
  const linalg::Vector initial = linalg::Vector::UniformProbability(m);
  Rng rng(7);
  std::vector<linalg::Vector> emissions;
  for (int t = 0; t < 32; ++t) {
    linalg::Vector e(m);
    for (size_t i = 0; i < m; ++i) e[i] = 0.05 + 0.95 * rng.NextDouble();
    emissions.push_back(std::move(e));
  }
  for (auto _ : state) {
    auto result = hmm::ForwardBackward(chain, initial, emissions);
    benchmark::DoNotOptimize(result->log_likelihood);
  }
}
BENCHMARK(BM_ForwardBackward)
    ->ArgsProduct({{16, 32}, {0, 1}})
    ->ArgNames({"side", "csr"});

// ---------------------------------------------------------------------------
// Release-step engine pairs (ISSUE-4 acceptance, ≥3× each): the workload is
// the 1024-cell grid with 9-support δ-location-set-style emissions. A
// release step checks several candidate budgets over a shared observation
// prefix; the cold arm recomputes every Theorem-vector chain from t = 1, the
// accelerated arm uses ReleaseStepContext's incremental prefix rows. Both
// arms run the same QP check.
// ---------------------------------------------------------------------------

void BM_ReleaseStepCached(benchmark::State& state) {
  const bool accelerated = state.range(0) != 0;
  const int side = 32;
  const markov::TransitionMatrix chain = MooreGridWalk(side, /*allow_sparse=*/true);
  const size_t m = chain.num_states();
  // A compact presence window keeps ā's reachable support moderate (the
  // paper's regime), so both arms solve small reduced QPs and the
  // Theorem-vector chain cost — the part the prefix cache removes, growing
  // with the prefix length — is visible.
  const auto ev = event::PresenceEvent::Make(m, 500, 500, 2, 3);
  const core::TwoWorldModel model(chain, ev);
  const core::QpSolver solver;

  // 60 timestamps × 6 candidate budgets: per step the halving search redraws
  // the 9-cell-support column (values change with α, the ΔX support drifts
  // one cell per accepted step).
  const int steps = 60;
  const int candidates = 6;
  Rng rng(1234);
  std::vector<std::vector<linalg::Vector>> dense(steps);
  for (int t = 0; t < steps; ++t) {
    const size_t row = static_cast<size_t>(side / 2) +
                       static_cast<size_t>(t) / static_cast<size_t>(side - 9);
    const size_t col = static_cast<size_t>(t) % static_cast<size_t>(side - 9);
    const size_t anchor = row * static_cast<size_t>(side) + col;
    for (int cand = 0; cand < candidates; ++cand) {
      linalg::Vector e(m);
      for (size_t j = 0; j < 9; ++j) e[anchor + j] = 0.1 + 0.9 * rng.NextDouble();
      dense[static_cast<size_t>(t)].push_back(std::move(e));
    }
  }

  for (auto _ : state) {
    double acc = 0.0;
    if (accelerated) {
      core::ReleaseStepContext context({&model}, &solver);
      for (int t = 0; t < steps; ++t) {
        for (int cand = 0; cand < candidates; ++cand) {
          const auto outcome = context.CheckCandidate(
              dense[static_cast<size_t>(t)][static_cast<size_t>(cand)], 0.5,
              -1.0);
          acc += outcome.per_model[0].max_condition15;
        }
        context.Commit(dense[static_cast<size_t>(t)].back());
      }
    } else {
      const core::PrivacyQuantifier quantifier(&model);
      std::vector<linalg::Vector> history;
      for (int t = 0; t < steps; ++t) {
        for (int cand = 0; cand < candidates; ++cand) {
          history.push_back(dense[static_cast<size_t>(t)][static_cast<size_t>(cand)]);
          const auto vectors = quantifier.ComputeVectors(history);
          const auto check = quantifier.CheckArbitraryPrior(
              vectors, 0.5, solver, Deadline::Infinite());
          acc += check.max_condition15;
          history.pop_back();
        }
        history.push_back(dense[static_cast<size_t>(t)].back());
      }
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ReleaseStepCached)->Arg(0)->Arg(1)->ArgName("cached")
    ->Unit(benchmark::kMillisecond);

// The dense-first-column scheme (ISSUE-5 tentpole, ≥3× acceptance): a
// geo-ind-style schedule whose emission columns are DENSE, so the sparse
// prefix rows never engage. The cold arm recomputes every Theorem-vector
// chain from t = 1 (O(t) per candidate check); the dense-prefix arm keeps m
// lifted row chains extended once per accepted timestamp and evaluates each
// candidate with fused replicate-and-dot kernels (O(m·nnz) per check). The
// workload isolates the Theorem-vector side (CandidateVectors) — the QP is
// measured by BM_QpCheck — and its horizon (300 ≈ 4.7·m)
// sits in the amortized regime the scheme targets (the dense rows engage at
// a horizon hint T ≥ 2m).
void BM_ReleaseStepDensePrefix(benchmark::State& state) {
  const bool accelerated = state.range(0) != 0;
  const int side = 8;  // m = 64
  const markov::TransitionMatrix chain = MooreGridWalk(side, /*allow_sparse=*/true);
  const size_t m = chain.num_states();
  const auto ev = event::PresenceEvent::Make(m, 1, 8, 2, 3);
  const core::TwoWorldModel model(chain, ev);
  const core::QpSolver solver;  // unused by the vector path; context needs one

  const int steps = 300;
  const int candidates = 5;
  Rng rng(5150);
  std::vector<std::vector<linalg::Vector>> columns(
      static_cast<size_t>(steps));
  for (int t = 0; t < steps; ++t) {
    for (int cand = 0; cand < candidates; ++cand) {
      linalg::Vector e(m);
      for (size_t j = 0; j < m; ++j) e[j] = 0.05 + 0.95 * rng.NextDouble();
      columns[static_cast<size_t>(t)].push_back(std::move(e));
    }
  }

  for (auto _ : state) {
    double acc = 0.0;
    if (accelerated) {
      core::ReleaseStepContext context({&model}, &solver);
      context.SetHorizonHint(steps);
      for (int t = 0; t < steps; ++t) {
        for (int cand = 0; cand < candidates; ++cand) {
          acc += context
                     .CandidateVectors(
                         0, columns[static_cast<size_t>(t)][static_cast<size_t>(cand)])
                     .b_bar.Sum();
        }
        context.Commit(columns[static_cast<size_t>(t)].back());
      }
    } else {
      const core::PrivacyQuantifier quantifier(&model);
      std::vector<linalg::Vector> history;
      for (int t = 0; t < steps; ++t) {
        for (int cand = 0; cand < candidates; ++cand) {
          history.push_back(
              columns[static_cast<size_t>(t)][static_cast<size_t>(cand)]);
          acc += quantifier.ComputeVectors(history).b_bar.Sum();
          history.pop_back();
        }
        history.push_back(columns[static_cast<size_t>(t)].back());
      }
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ReleaseStepDensePrefix)->Arg(0)->Arg(1)->ArgName("dense_rows")
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Kernel-substrate pair (ISSUE-7 acceptance, ≥1.3×): the RowBlock
// replicate-and-dot under scalar vs dispatched kernels.
// ---------------------------------------------------------------------------

// The dense-prefix candidate evaluation in isolation: a RowBlock family of
// lifted rows (k automaton blocks × m states, contiguous and 64B-aligned)
// fused-replicate-dotted against one dense candidate. Arm 0 forces the
// portable scalar kernel table, arm 1 takes the host's widest dispatch —
// identical code and layout otherwise, so the ratio isolates the
// vectorization win (bit-identical sums by the kernels' contract).
void BM_RowBlockReplicateDot(benchmark::State& state) {
  const bool simd = state.range(0) != 0;
  const size_t blocks = 4, m = 256, rows = 96;
  const size_t lifted = blocks * m;
  Rng rng(99);
  linalg::RowBlock block(rows, lifted);
  linalg::Vector cand(m), seed(lifted);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < lifted; ++j) block.Row(i)[j] = rng.NextDouble();
  }
  for (size_t j = 0; j < m; ++j) cand[j] = rng.NextDouble();
  for (size_t j = 0; j < lifted; ++j) seed[j] = rng.NextDouble();

  const linalg::kernels::SimdLevel previous =
      linalg::kernels::SetSimdLevelForTest(
          simd ? linalg::kernels::WidestSimdLevel()
               : linalg::kernels::SimdLevel::kScalar);
  for (auto _ : state) {
    double acc = 0.0;
    for (size_t i = 0; i < rows; ++i) {
      double seeded, plain;
      linalg::kernels::ReplicateDotPair(block.Row(i), blocks, m, cand.data(),
                                        seed.data(), &seeded, &plain);
      acc += seeded + plain;
    }
    benchmark::DoNotOptimize(acc);
  }
  linalg::kernels::SetSimdLevelForTest(previous);
}
BENCHMARK(BM_RowBlockReplicateDot)->Arg(0)->Arg(1)->ArgName("simd");

// ---------------------------------------------------------------------------
// Serial vs parallel driver variants. An explicit thread count makes the
// comparison self-contained in one process; the workload per index is a full
// Theorem-vector chain — the same shape eval::Experiment fans out per run.
// ---------------------------------------------------------------------------

void BM_ParallelForQuantifier(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  Fixture& f = SharedFixture(12);
  const core::PrivacyQuantifier quantifier(&f.model);
  const std::vector<linalg::Vector> history(
      8, f.plm.emission().EmissionColumn(3));
  const size_t jobs = 8;
  std::vector<double> sums(jobs, 0.0);
  for (auto _ : state) {
    ParallelFor(threads, jobs, [&](size_t i) {
      sums[i] = quantifier.ComputeVectors(history).b_bar.Sum();
    });
    benchmark::DoNotOptimize(sums.data());
  }
}
BENCHMARK(BM_ParallelForQuantifier)->Arg(1)->Arg(2)->Arg(4)->ArgName("threads");

// A full multi-run eval::Experiment episode at PRISTE_THREADS threads: run
// with PRISTE_THREADS=1 vs =4 to measure the driver-level win
// (scripts/bench.sh records the thread count in the context).
void BM_RepeatedGeoIndExperiment(benchmark::State& state) {
  eval::ExperimentScale scale;
  scale.grid_width = 8;
  scale.grid_height = 8;
  scale.horizon = 10;
  scale.runs = static_cast<int>(state.range(0));
  const eval::SyntheticWorkload workload(scale, /*sigma=*/1.0);
  const auto ev = event::PresenceEvent::Make(workload.grid.num_cells(), 1, 8, 3, 5);
  const core::PristeOptions options = eval::DefaultBenchOptions(0.5, 0.2);
  for (auto _ : state) {
    const auto stats = eval::RunRepeatedGeoInd(workload.grid, workload.Chain(),
                                               {ev}, options, scale, /*seed=*/99);
    benchmark::DoNotOptimize(stats.mean_budget.mean());
  }
}
BENCHMARK(BM_RepeatedGeoIndExperiment)->Arg(4)->ArgName("runs")
    ->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN plus priste's own build type and active kernel dispatch path
// in the JSON context (Google Benchmark's library_build_type describes
// libbenchmark, not the code under measurement).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::string build_type = PRISTE_BUILD_TYPE;
  benchmark::AddCustomContext("priste_build_type",
                              build_type.empty() ? "none" : build_type);
  benchmark::AddCustomContext(
      "priste_simd_dispatch",
      priste::linalg::kernels::SimdLevelName(
          priste::linalg::kernels::ActiveSimdLevel()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
