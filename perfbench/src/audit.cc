#include "audit.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "priste/core/joint.h"
#include "priste/hmm/forward_backward.h"
#include "priste/lppm/delta_location_set.h"

namespace perfbench {
namespace {

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

AuditResult Fail(std::string why) {
  AuditResult result;
  result.ok = false;
  result.failure = std::move(why);
  return result;
}

}  // namespace

AuditResult AuditRun(const WorkloadSpec& spec, const World& world,
                     const core::LiftedEventModel& model,
                     const geo::Trajectory& truth, const core::RunResult& run) {
  const int horizon = truth.length();
  if (run.released.length() != horizon ||
      run.steps.size() != static_cast<size_t>(horizon)) {
    return Fail("released " + std::to_string(run.released.length()) +
                " cells for a trajectory of " + std::to_string(horizon));
  }
  for (int t = 1; t <= horizon; ++t) {
    if (!world.grid.ContainsCell(run.released.At(t))) {
      return Fail("released cell outside the grid at t=" + std::to_string(t));
    }
  }

  const double bound = spec.options.epsilon + 1e-9;
  core::JointCalculator joint(
      &model, linalg::Vector::UniformProbability(world.grid.num_cells()));
  linalg::Vector posterior = world.chain.initial();
  AuditResult result;
  for (int t = 1; t <= horizon; ++t) {
    const int o = run.released.At(t);
    const double budget = run.steps[static_cast<size_t>(t - 1)].released_alpha;
    // Re-derive the emission column of the released observation.
    linalg::Vector column;
    if (spec.algorithm == Algorithm::kGeoInd) {
      column = world.family->Instantiate(budget)->emission().EmissionColumn(o);
    } else {
      const linalg::Vector predicted =
          world.chain.transition().Propagate(posterior);
      auto location_set = lppm::DeltaLocationSet(predicted, spec.delta);
      if (!location_set.ok()) return Fail(location_set.status().ToString());
      const lppm::DeltaRestrictedPlanarLaplace mech(world.grid, budget,
                                                    *location_set);
      column = mech.emission().EmissionColumn(o);
      auto updated = hmm::PosteriorUpdate(predicted, column);
      if (!updated.ok()) return Fail(updated.status().ToString());
      posterior = std::move(updated).value();
    }
    joint.Push(column);
    const double ln_lr = std::fabs(std::log(joint.LikelihoodRatio()));
    if (!(ln_lr <= bound)) {
      return Fail("|ln LR| = " + std::to_string(ln_lr) + " > eps at t=" +
                  std::to_string(t));
    }
    result.worst_ln_lr = std::max(result.worst_ln_lr, ln_lr);
  }
  return result;
}

uint64_t ReleaseDigest(uint64_t digest, int trajectory,
                       const std::vector<int>& released,
                       const std::vector<double>& released_alpha) {
  digest = Fnv1a(digest, &trajectory, sizeof(trajectory));
  for (size_t i = 0; i < released.size(); ++i) {
    digest = Fnv1a(digest, &released[i], sizeof(int));
    uint64_t bits = 0;
    std::memcpy(&bits, &released_alpha[i], sizeof(bits));
    digest = Fnv1a(digest, &bits, sizeof(bits));
  }
  return digest;
}

}  // namespace perfbench
