#include "priste/eval/experiment.h"

#include "priste/common/check.h"
#include "priste/common/metrics.h"
#include "priste/common/strings.h"
#include "priste/common/parallel_for.h"
#include "priste/eval/metrics.h"

namespace priste::eval {

ExperimentScale ExperimentScale::FromEnv() {
  ExperimentScale scale;
  // Strict full-string parses ("1x" and "abc" warn and fall back; atoi used
  // to read them as 1 and 0 silently).
  if (ReadIntEnv("PRISTE_FULL", 0) != 0) {
    scale.full = true;
    scale.grid_width = 20;
    scale.grid_height = 20;
    scale.horizon = 50;
    scale.runs = 100;
  }
  scale.runs = ReadIntEnv("PRISTE_RUNS", scale.runs, /*min_value=*/1);
  PRISTE_CHECK(scale.runs >= 1);
  return scale;
}

int ExperimentScale::MapStateCount(int paper_count, int paper_grid_cells) const {
  const int cells = grid_width * grid_height;
  if (cells == paper_grid_cells) return paper_count;
  const int mapped = (paper_count * cells + paper_grid_cells - 1) / paper_grid_cells;
  return std::max(1, mapped);
}

int ExperimentScale::MapTimestamp(int paper_t, int paper_horizon) const {
  if (horizon == paper_horizon) return paper_t;
  const int mapped = (paper_t * horizon + paper_horizon - 1) / paper_horizon;
  return std::max(1, std::min(horizon, mapped));
}

SyntheticWorkload::SyntheticWorkload(const ExperimentScale& scale, double sigma)
    : grid(scale.grid_width, scale.grid_height, 1.0), model(grid, sigma) {}

namespace {

// Per-run scalar metrics, computed inside the parallel section so the
// serial aggregation below is O(runs).
struct PerRunMetrics {
  std::vector<double> alpha_series;
  double mean_budget = 0.0;
  double euclid_km = 0.0;
  double run_seconds = 0.0;
  double conservative = 0.0;
  double halvings = 0.0;
};

template <typename RunFn>
RepeatedRunStats RepeatRuns(const markov::MarkovChain& chain, const geo::Grid& grid,
                            int horizon, int runs, uint64_t seed, RunFn&& run_fn) {
  // Per-run RNG streams are split serially from the master BEFORE the
  // parallel section, and the aggregation below runs serially in run order —
  // together they make the statistics bit-identical at any PRISTE_THREADS
  // value whenever the QP checks are deadline-free; a finite
  // qp_threshold_seconds reintroduces wall-clock dependence (which checks
  // time out), as it already did serially under machine load.
  Rng master(seed);
  std::vector<Rng> run_rngs;
  run_rngs.reserve(static_cast<size_t>(runs));
  for (int r = 0; r < runs; ++r) run_rngs.push_back(master.Split());

  std::vector<PerRunMetrics> per_run(static_cast<size_t>(runs));
  ParallelFor(static_cast<size_t>(runs), [&](size_t r) {
    Rng run_rng = run_rngs[r];
    const geo::Trajectory truth(chain.Sample(horizon, run_rng));
    const Result<core::RunResult> result = run_fn(truth, run_rng);
    PRISTE_CHECK_MSG(result.ok(), result.status().ToString().c_str());
    const core::RunResult& run = *result;
    per_run[r].alpha_series = AlphaSeries(run);
    per_run[r].mean_budget = MeanReleasedAlpha(run);
    per_run[r].euclid_km = MeanEuclideanErrorKm(truth, run, grid);
    per_run[r].run_seconds = run.total_seconds;
    per_run[r].conservative = static_cast<double>(run.total_conservative);
    per_run[r].halvings = static_cast<double>(TotalHalvings(run));
  });

  RepeatedRunStats stats;
  for (const PerRunMetrics& run : per_run) {
    stats.budget_per_timestamp.AddSeries(run.alpha_series);
    stats.mean_budget.Add(run.mean_budget);
    stats.euclid_km.Add(run.euclid_km);
    stats.run_seconds.Add(run.run_seconds);
    stats.conservative_releases.Add(run.conservative);
    stats.halvings.Add(run.halvings);
  }
  return stats;
}

}  // namespace

RepeatedRunStats RunRepeatedGeoInd(
    const geo::Grid& grid, const markov::MarkovChain& chain,
    const std::vector<event::EventPtr>& events,
    const core::PristeOptions& options, const ExperimentScale& scale,
    uint64_t seed, std::shared_ptr<const lppm::MechanismFamily> family) {
  const core::PristeGeoInd priste(
      grid, core::BuildTwoWorldModels(chain.transition(), events), options,
      std::move(family));
  return RepeatRuns(chain, grid, scale.horizon, scale.runs, seed,
                    [&priste](const geo::Trajectory& truth, Rng& rng) {
                      return priste.Run(truth, rng);
                    });
}

RepeatedRunStats RunRepeatedDeltaLoc(const geo::Grid& grid,
                                     const markov::MarkovChain& chain,
                                     const std::vector<event::EventPtr>& events,
                                     double delta,
                                     const core::PristeOptions& options,
                                     const ExperimentScale& scale, uint64_t seed) {
  const core::PristeDeltaLoc priste(grid, chain.transition(), events, delta,
                                    chain.initial(), options);
  return RepeatRuns(chain, grid, scale.horizon, scale.runs, seed,
                    [&priste](const geo::Trajectory& truth, Rng& rng) {
                      return priste.Run(truth, rng);
                    });
}

core::PristeOptions DefaultBenchOptions(double epsilon, double alpha) {
  core::PristeOptions options;
  options.epsilon = epsilon;
  options.initial_alpha = alpha;
  options.qp_threshold_seconds = 1.0;
  return options;
}

std::string RuntimeMetricsSummary() {
  return MetricsRegistry::Global().Render();
}

}  // namespace priste::eval
