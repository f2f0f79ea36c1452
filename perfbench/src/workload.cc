#include "workload.h"

#include <atomic>
#include <thread>
#include <utility>

#include "priste/core/two_world.h"
#include "priste/event/presence.h"
#include "priste/geo/gaussian_grid_model.h"

namespace perfbench {
namespace {

// The paper-figure benches' settings (Section V), written out here rather
// than taken from the library's bench defaults.
core::PristeOptions PinnedOptions(double initial_budget) {
  core::PristeOptions options;
  options.epsilon = 0.5;
  options.initial_alpha = initial_budget;
  options.decay = 0.5;
  options.min_alpha = 1e-4;
  options.qp_threshold_seconds = 1.0;
  options.normalize_emissions = true;
  options.qp.grid_points = 33;
  options.qp.refine_iters = 12;
  options.qp.pga_restarts = 2;
  options.qp.pga_iters = 60;
  return options;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

std::optional<WorkloadSpec> FindWorkload(const std::string& name, bool tiny) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "plm") {
    // Algorithm 2 with planar Laplace (Case Study 1; Fig. 7(b)'s 0.5-PLM).
    spec.options = PinnedOptions(0.5);
    spec.horizon = 50;
    spec.setup_repeats = 3;
  } else if (name == "deltaloc") {
    // Algorithm 3 with δ-location sets (Case Study 2, Fig. 10).
    spec.algorithm = Algorithm::kDeltaLoc;
    spec.delta = 0.2;
    spec.options = PinnedOptions(0.2);
    spec.horizon = 20;
    spec.setup_repeats = 5;
  } else if (name == "cloak") {
    // Algorithm 2 with the pluggable cloaking family (Section VI-A).
    spec.family = Family::kCloaking;
    spec.expected_path = EnginePath::kSparseRows;
    spec.cloak_radius_km = 2.0;
    spec.options = PinnedOptions(1.0);
    spec.horizon = 50;
    spec.setup_repeats = 5;
  } else {
    return std::nullopt;
  }
  if (tiny) {
    spec.grid_width = 6;
    spec.grid_height = 6;
    spec.horizon = 10;
    spec.setup_repeats = 2;
    spec.fixed_per_thread = 4;
  }
  return spec;
}

World MakeWorld(const WorkloadSpec& spec) {
  const geo::Grid grid(spec.grid_width, spec.grid_height, /*cell_size_km=*/1.0);
  const geo::GaussianGridModel mobility(grid, /*sigma=*/10.0);
  World world{grid, mobility.ChainUniformStart(),
              event::PresenceEvent::Make(grid.num_cells(), /*first_state=*/1,
                                         /*last_state=*/10, /*start=*/4,
                                         /*end=*/8),
              nullptr};
  if (spec.algorithm == Algorithm::kGeoInd) {
    if (spec.family == Family::kCloaking) {
      world.family =
          std::make_shared<lppm::CloakingFamily>(grid, spec.cloak_radius_km);
    } else {
      world.family = std::make_shared<lppm::PlanarLaplaceFamily>(grid);
    }
  }
  return world;
}

UserInput MakeInput(const World& world, uint64_t seed, int stream, int index,
                    int length) {
  const uint64_t key = SplitMix64(
      SplitMix64(SplitMix64(seed) ^ static_cast<uint64_t>(stream)) ^
      static_cast<uint64_t>(index));
  UserInput input{geo::Trajectory(), Rng(key)};
  input.truth = geo::Trajectory(world.chain.Sample(length, input.rng));
  return input;
}

Engine::Engine(const WorkloadSpec& spec, const World& world) {
  if (spec.algorithm == Algorithm::kDeltaLoc) {
    delta_loc_ = std::make_unique<core::PristeDeltaLoc>(
        world.grid, world.chain.transition(),
        std::vector<event::EventPtr>{world.event}, spec.delta,
        world.chain.initial(), spec.options);
    return;
  }
  std::vector<std::shared_ptr<const core::LiftedEventModel>> models = {
      std::make_shared<core::TwoWorldModel>(world.chain.transition(),
                                            world.event)};
  geo_ind_ = std::make_unique<core::PristeGeoInd>(
      world.grid, std::move(models), spec.options, world.family);
}

Result<core::RunResult> Engine::Run(const geo::Trajectory& truth,
                                    Rng& rng) const {
  return geo_ind_ != nullptr ? geo_ind_->Run(truth, rng)
                             : delta_loc_->Run(truth, rng);
}

void PrefillLadder(const lppm::MechanismFamily& family,
                   const core::PristeOptions& options, int threads) {
  std::vector<double> ladder;
  for (double alpha = options.initial_alpha; alpha >= options.min_alpha;
       alpha *= options.decay) {
    ladder.push_back(alpha);
  }
  ladder.push_back(0.0);
  std::atomic<size_t> next{0};
  RunOnThreads(threads, [&](int) {
    for (size_t i = next++; i < ladder.size(); i = next++) {
      family.Instantiate(ladder[i]);
    }
  });
}

void RunOnThreads(int threads, const std::function<void(int)>& fn) {
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads > 1 ? threads - 1 : 0));
  for (int w = 1; w < threads; ++w) workers.emplace_back(fn, w);
  fn(0);
  for (std::thread& worker : workers) worker.join();
}

}  // namespace perfbench
