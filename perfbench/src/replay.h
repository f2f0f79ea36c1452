#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "priste/core/event_model.h"
#include "priste/core/qp_solver.h"
#include "workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The public calls the traced replay times, one span each.
enum class Layer : uint8_t {
  kContext,    // ReleaseStepContext constructor (+ horizon hint)
  kStep,       // one released step, parent of the spans below
  kMechanism,  // MechanismFamily::Instantiate / DeltaRestrictedPlanarLaplace
  kSample,     // Lppm::Perturb + EmissionMatrix::EmissionColumn
  kCheck,      // ReleaseStepContext::CheckCandidate
  kVectors,    // ReleaseStepContext::CandidateVectors, repeated after a check
  kCommit,     // ReleaseStepContext::Commit
  kPredict,    // TransitionMatrix::Propagate
  kDeltaSet,   // lppm::DeltaLocationSet
  kPosterior,  // hmm::PosteriorUpdate
};
inline constexpr size_t kNumLayers = static_cast<size_t>(Layer::kPosterior) + 1;

const char* LayerName(Layer layer);

struct Span {
  Layer layer;
  int trajectory;  // global trajectory id
  int step;        // parent release step (1-based); 0 for the context span
  int64_t start_ns;
  int64_t end_ns;
};

/// In-memory span recorder of one thread; spans are written out after the
/// run, never while it is timed.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void Add(Layer layer, int trajectory, int step, Clock::time_point start,
           Clock::time_point end) {
    spans_.push_back({layer, trajectory, step, Nanos(start), Nanos(end)});
  }

  /// Runs fn() inside a span and returns what it returns.
  template <typename Fn>
  decltype(auto) Time(Layer layer, int trajectory, int step, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
      fn();
      Add(layer, trajectory, step, start, Clock::now());
    } else {
      decltype(auto) value = fn();
      Add(layer, trajectory, step, start, Clock::now());
      return value;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Nanos(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// What one traced trajectory released, and how its steps' wall time splits.
struct ReplayResult {
  bool ok = true;
  std::string error;
  std::vector<int> released;
  std::vector<double> released_alpha;
  /// Wall time of the whole trajectory, and of its repeated vector calls.
  double seconds = 0.0;
  double vectors_seconds = 0.0;
  /// Per step: wall time net of the repeated vector calls, and the part of
  /// it covered by spans.
  std::vector<double> step_seconds;
  std::vector<double> attributed_seconds;
};

/// Replays `spec`'s release loop for one trajectory through the same public
/// calls Run makes, timing each into `tracer`. `model` and `solver` must be
/// built from the workload's chain, event and QP options.
ReplayResult Replay(const WorkloadSpec& spec, const World& world,
                    const core::LiftedEventModel& model,
                    const core::QpSolver& solver, UserInput input,
                    int trajectory, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
