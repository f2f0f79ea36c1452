#ifndef PERFBENCH_AUDIT_H_
#define PERFBENCH_AUDIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "priste/core/event_model.h"
#include "priste/core/priste.h"
#include "workload.h"

namespace perfbench {

struct AuditResult {
  bool ok = true;
  std::string failure;
  /// Largest |ln LR| over the trajectory's released prefixes.
  double worst_ln_lr = 0.0;
};

/// Re-checks one released trajectory through a path independent of the
/// release engine: the run must hold one in-grid cell per timestamp, and
/// every released prefix must keep the event likelihood ratio under a
/// uniform prior, computed by core::JointCalculator over the re-derived
/// emission columns, within |ln LR| <= ε + 1e-9.
AuditResult AuditRun(const WorkloadSpec& spec, const World& world,
                     const core::LiftedEventModel& model,
                     const geo::Trajectory& truth, const core::RunResult& run);

/// FNV-1a over what one trajectory released (cells and budget bits), keyed
/// by its id; digests of trajectories combine in id order.
uint64_t ReleaseDigest(uint64_t digest, int trajectory,
                       const std::vector<int>& released,
                       const std::vector<double>& released_alpha);

}  // namespace perfbench

#endif  // PERFBENCH_AUDIT_H_
