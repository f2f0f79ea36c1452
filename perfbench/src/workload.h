#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "priste/common/random.h"
#include "priste/common/status.h"
#include "priste/core/priste.h"
#include "priste/core/priste_delta_loc.h"
#include "priste/core/priste_geo_ind.h"
#include "priste/event/event.h"
#include "priste/geo/grid.h"
#include "priste/geo/trajectory.h"
#include "priste/lppm/mechanism_family.h"
#include "priste/markov/markov_chain.h"

namespace perfbench {

namespace core = priste::core;
namespace event = priste::event;
namespace geo = priste::geo;
namespace hmm = priste::hmm;
namespace linalg = priste::linalg;
namespace lppm = priste::lppm;
namespace markov = priste::markov;
using priste::Result;
using priste::Rng;

enum class Algorithm { kGeoInd, kDeltaLoc };
enum class Family { kPlanarLaplace, kCloaking };
/// The Theorem-vector path a workload exists to exercise.
enum class EnginePath { kColdChain, kSparseRows };

/// One benchmark workload. Every option is pinned here, so retuning the
/// library's own bench defaults never moves a recorded number; the engine
/// knobs (warm starts, prefix cache) stay at the library defaults.
struct WorkloadSpec {
  std::string name;
  Algorithm algorithm = Algorithm::kGeoInd;
  Family family = Family::kPlanarLaplace;
  EnginePath expected_path = EnginePath::kColdChain;
  int grid_width = 20;
  int grid_height = 20;
  int horizon = 50;
  /// δ of the δ-location set (Algorithm 3 only).
  double delta = 0.0;
  /// R0 of the cloaking family: the disk radius at budget 1.
  double cloak_radius_km = 2.0;
  /// Fresh constructions per run; setup_s is their median.
  int setup_repeats = 1;
  /// The leading users of every thread whose outputs are a function of the
  /// seed alone: mean_alpha, euclid_km and the release digest average over
  /// them, and the traced replay replays them.
  int fixed_per_thread = 16;
  core::PristeOptions options;
};

/// The workload named `name` at paper size, or at the tiny smoke size.
std::optional<WorkloadSpec> FindWorkload(const std::string& name, bool tiny);

/// The static world all engines of a workload share: the paper's map of
/// 1 km cells, Gaussian mobility with σ = 10 from a uniform start, and the
/// event PRESENCE(S = {1:10}, T = {4:8}).
struct World {
  geo::Grid grid;
  markov::MarkovChain chain;
  event::EventPtr event;
  /// The calibrated family (Algorithm 2 only; null for Algorithm 3).
  std::shared_ptr<const lppm::MechanismFamily> family;
};

World MakeWorld(const WorkloadSpec& spec);

/// One user's true trajectory and the RNG stream its release draws from: a
/// pure function of (seed, stream, index), so released output does not
/// depend on scheduling.
struct UserInput {
  geo::Trajectory truth;
  Rng rng;
};

UserInput MakeInput(const World& world, uint64_t seed, int stream, int index,
                    int length);

/// The real entry point of the workload's algorithm.
class Engine {
 public:
  Engine(const WorkloadSpec& spec, const World& world);

  Result<core::RunResult> Run(const geo::Trajectory& truth, Rng& rng) const;

 private:
  std::unique_ptr<core::PristeGeoInd> geo_ind_;
  std::unique_ptr<core::PristeDeltaLoc> delta_loc_;
};

/// Builds every budget a release step can try into the shared emission
/// cache, spread over `threads` threads: initial · decay^k while at least
/// min_alpha, then 0, computed exactly as the release loop computes them.
void PrefillLadder(const lppm::MechanismFamily& family,
                   const core::PristeOptions& options, int threads);

/// Runs fn(w) for w in [0, threads) with w = 0 on the calling thread, and
/// returns once every call has finished.
void RunOnThreads(int threads, const std::function<void(int)>& fn);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
