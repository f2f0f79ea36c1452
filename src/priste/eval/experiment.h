#ifndef PRISTE_EVAL_EXPERIMENT_H_
#define PRISTE_EVAL_EXPERIMENT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "priste/core/priste.h"
#include "priste/core/priste_delta_loc.h"
#include "priste/core/priste_geo_ind.h"
#include "priste/eval/aggregate.h"
#include "priste/geo/gaussian_grid_model.h"
#include "priste/geo/grid.h"
#include "priste/lppm/mechanism_family.h"
#include "priste/markov/markov_chain.h"

namespace priste::eval {

/// Environment-driven experiment scale. The paper's full scale (20×20 grid,
/// T = 50, 100 runs) is expensive with the reference QP settings, so the
/// bench harness defaults to a reduced-but-faithful scale and honours:
///   PRISTE_FULL=1   → paper scale,
///   PRISTE_RUNS=N   → override the repetition count.
struct ExperimentScale {
  int grid_width = 16;
  int grid_height = 16;
  int horizon = 30;           // T
  int runs = 3;
  bool full = false;

  static ExperimentScale FromEnv();

  /// Scales the paper's 1-based state-range shorthand (e.g. {1:10} on the
  /// 20×20 map) proportionally onto this grid; identity at full scale.
  int MapStateCount(int paper_count, int paper_grid_cells = 400) const;

  /// Scales a paper timestamp on the T=50 horizon onto this horizon.
  int MapTimestamp(int paper_t, int paper_horizon = 50) const;
};

/// A synthetic workload in the paper's Section V-A setup: Gaussian-kernel
/// transitions of scale σ on the grid, uniform initial distribution.
struct SyntheticWorkload {
  geo::Grid grid;
  geo::GaussianGridModel model;

  SyntheticWorkload(const ExperimentScale& scale, double sigma);
  markov::MarkovChain Chain() const { return model.ChainUniformStart(); }
};

/// Aggregated outcome of repeated PriSTE runs on fresh trajectories.
struct RepeatedRunStats {
  /// Per-timestamp released-budget statistics (Figs. 7–10).
  SeriesStats budget_per_timestamp;
  /// Whole-run scalar metrics (Figs. 11–13, Table III).
  RunningStats mean_budget;
  RunningStats euclid_km;
  RunningStats run_seconds;
  RunningStats conservative_releases;
  /// Budget halvings per run (eval::TotalHalvings).
  RunningStats halvings;
};

/// Runs `scale.runs` PriSTE-with-geo-indistinguishability episodes: each run
/// samples a fresh true trajectory from `chain`, protects `events` with
/// `family`'s mechanisms (nullptr means planar Laplace, as in PristeGeoInd),
/// and aggregates the metrics. Seeds derive from `seed` deterministically:
/// the runs fan out over ParallelFor, and the statistics are bit-identical
/// at any PRISTE_THREADS value whenever the QP checks have no deadline.
RepeatedRunStats RunRepeatedGeoInd(
    const geo::Grid& grid, const markov::MarkovChain& chain,
    const std::vector<event::EventPtr>& events,
    const core::PristeOptions& options, const ExperimentScale& scale,
    uint64_t seed,
    std::shared_ptr<const lppm::MechanismFamily> family = nullptr);

/// δ-location-set counterpart (Algorithm 3).
RepeatedRunStats RunRepeatedDeltaLoc(const geo::Grid& grid,
                                     const markov::MarkovChain& chain,
                                     const std::vector<event::EventPtr>& events,
                                     double delta,
                                     const core::PristeOptions& options,
                                     const ExperimentScale& scale, uint64_t seed);

/// Default PriSTE options used across the benches (paper Section V settings
/// with this library's QP engine).
core::PristeOptions DefaultBenchOptions(double epsilon, double alpha);

/// One-paragraph rendering of the process-wide runtime metrics accumulated
/// so far (cache hit rates, release/QP counters, latency quantiles) —
/// appended to bench run summaries and `priste_cli --metrics`. Purely
/// observational: reading it never perturbs results.
std::string RuntimeMetricsSummary();

}  // namespace priste::eval

#endif  // PRISTE_EVAL_EXPERIMENT_H_
