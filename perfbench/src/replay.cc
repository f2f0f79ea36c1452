#include "replay.h"

#include <memory>
#include <optional>
#include <utility>

#include "priste/core/release_step.h"
#include "priste/hmm/forward_backward.h"
#include "priste/lppm/delta_location_set.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  static constexpr std::array<const char*, kNumLayers> kNames = {
      "core.context",   "release.step",  "lppm.mechanism", "lppm.sample",
      "core.check",     "core.vectors",  "core.commit",    "markov.predict",
      "lppm.delta_set", "hmm.posterior"};
  return kNames[static_cast<size_t>(layer)];
}

namespace {

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// One traced trajectory: the release-step context and where spans go.
struct Trace {
  core::ReleaseStepContext& context;
  Tracer& tracer;
  int id;
};

// Closes step t: records its span and splits its wall time into the part
// the repeated vector calls took (excluded from the step) and the part the
// other spans cover. Runs after the step's end is read, so the tally itself
// is not timed.
void CloseStep(Tracer& tracer, size_t first_span, int trajectory, int t,
               Clock::time_point start, ReplayResult& out) {
  const Clock::time_point end = Clock::now();
  double vectors = 0.0;
  double attributed = 0.0;
  for (size_t i = first_span; i < tracer.spans().size(); ++i) {
    const Span& span = tracer.spans()[i];
    const double d = static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    (span.layer == Layer::kVectors ? vectors : attributed) += d;
  }
  tracer.Add(Layer::kStep, trajectory, t, start, end);
  out.step_seconds.push_back(Seconds(end - start) - vectors);
  out.attributed_seconds.push_back(attributed);
  out.vectors_seconds += vectors;
}

// The budget-halving search of one release step, as both Run loops make
// it: `make_mechanism(budget)` builds the candidate mechanism. Below
// min_alpha the budget is 0 and that release is committed unchecked.
// Returns the committed emission column.
template <typename MakeMechanism>
linalg::Vector SearchBudget(const core::PristeOptions& options, Trace trace,
                            int t, int true_cell, Rng& rng,
                            MakeMechanism&& make_mechanism,
                            ReplayResult& out) {
  for (double alpha = options.initial_alpha;; alpha *= options.decay) {
    const double budget = alpha < options.min_alpha ? 0.0 : alpha;
    const lppm::Lppm& mech = trace.tracer.Time(
        Layer::kMechanism, trace.id, t,
        [&]() -> const lppm::Lppm& { return make_mechanism(budget); });
    int o = -1;
    linalg::Vector column;
    trace.tracer.Time(Layer::kSample, trace.id, t, [&] {
      o = mech.Perturb(true_cell, rng);
      column = mech.emission().EmissionColumn(o);
    });
    bool accept = budget == 0.0;
    if (!accept) {
      const core::ReleaseCheckOutcome outcome =
          trace.tracer.Time(Layer::kCheck, trace.id, t, [&] {
            return trace.context.CheckCandidate(column, options.epsilon,
                                                options.qp_threshold_seconds);
          });
      // Only for the trace: the Theorem vectors a second time, so their
      // share of the check can be read off.
      trace.tracer.Time(Layer::kVectors, trace.id, t, [&] {
        (void)trace.context.CandidateVectors(0, column);
      });
      accept = outcome.all_satisfied;
    }
    if (accept) {
      trace.tracer.Time(Layer::kCommit, trace.id, t,
                        [&] { trace.context.Commit(column); });
      out.released.push_back(o);
      out.released_alpha.push_back(budget);
      return column;
    }
  }
}

// Algorithm 2, as PristeGeoInd::Run runs it.
void ReplayGeoInd(const WorkloadSpec& spec, const World& world,
                  UserInput& input, Trace trace, ReplayResult& out) {
  std::unique_ptr<lppm::Lppm> mech;
  for (int t = 1; t <= input.truth.length(); ++t) {
    const Clock::time_point step_start = Clock::now();
    const size_t first_span = trace.tracer.spans().size();
    SearchBudget(spec.options, trace, t, input.truth.At(t), input.rng,
                 [&](double budget) -> const lppm::Lppm& {
                   mech = world.family->Instantiate(budget);
                   return *mech;
                 },
                 out);
    CloseStep(trace.tracer, first_span, trace.id, t, step_start, out);
  }
}

// Algorithm 3, as PristeDeltaLoc::Run runs it.
void ReplayDeltaLoc(const WorkloadSpec& spec, const World& world,
                    UserInput& input, Trace trace, ReplayResult& out) {
  Tracer& tracer = trace.tracer;
  const int id = trace.id;
  linalg::Vector posterior = world.chain.initial();
  std::optional<lppm::DeltaRestrictedPlanarLaplace> mech;
  for (int t = 1; t <= input.truth.length(); ++t) {
    const Clock::time_point step_start = Clock::now();
    const size_t first_span = tracer.spans().size();
    const linalg::Vector predicted = tracer.Time(Layer::kPredict, id, t, [&] {
      return world.chain.transition().Propagate(posterior);
    });
    auto location_set = tracer.Time(Layer::kDeltaSet, id, t, [&] {
      return lppm::DeltaLocationSet(predicted, spec.delta);
    });
    if (!location_set.ok()) {
      out.ok = false;
      out.error = location_set.status().ToString();
      return;
    }
    const linalg::Vector column = SearchBudget(
        spec.options, trace, t, input.truth.At(t), input.rng,
        [&](double budget) -> const lppm::Lppm& {
          mech.emplace(world.grid, budget, *location_set);
          return *mech;
        },
        out);
    auto updated = tracer.Time(Layer::kPosterior, id, t, [&] {
      return hmm::PosteriorUpdate(predicted, column);
    });
    if (!updated.ok()) {
      out.ok = false;
      out.error = updated.status().ToString();
      return;
    }
    posterior = std::move(updated).value();
    CloseStep(tracer, first_span, id, t, step_start, out);
  }
}

}  // namespace

ReplayResult Replay(const WorkloadSpec& spec, const World& world,
                    const core::LiftedEventModel& model,
                    const core::QpSolver& solver, UserInput input,
                    int trajectory, Tracer& tracer) {
  ReplayResult out;
  const Clock::time_point begin = Clock::now();
  const auto context = tracer.Time(Layer::kContext, trajectory, 0, [&] {
    auto made = std::make_unique<core::ReleaseStepContext>(
        std::vector<const core::LiftedEventModel*>{&model}, &solver,
        spec.options.normalize_emissions, spec.options.release);
    made->SetHorizonHint(input.truth.length());
    return made;
  });
  const Trace trace{*context, tracer, trajectory};
  if (spec.algorithm == Algorithm::kGeoInd) {
    ReplayGeoInd(spec, world, input, trace, out);
  } else {
    ReplayDeltaLoc(spec, world, input, trace, out);
  }
  out.seconds = Seconds(Clock::now() - begin);
  return out;
}

}  // namespace perfbench
