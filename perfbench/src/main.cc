// priste_perfbench: the end-to-end release benchmark. One invocation sets
// up one workload, runs a closed loop of one user per usable CPU through
// the real Run entry point for --seconds, audits every released
// trajectory, and prints one JSON result line. With --trace 1 it then
// replays the fixed users of every thread through the public per-layer
// calls, timing each, and reports the per-layer breakdown instead.
//
//   priste_perfbench --workload plm|deltaloc|cloak --seed N --seconds S
//                    --trace 0|1 [--size paper|tiny] [--commit ID]
//                    [--spans FILE]
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "audit.h"
#include "priste/common/metrics.h"
#include "priste/core/two_world.h"
#include "priste/eval/metrics.h"
#include "priste/lppm/emission_cache.h"
#include "replay.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace eval = priste::eval;

// Environment knobs that would change what a workload runs.
constexpr const char* kGuardedEnv[] = {
    "PRISTE_MAX_CACHE_SUPPORT", "PRISTE_EMISSION_CACHE",
    "PRISTE_EMISSION_CACHE_MB", "PRISTE_SIMD", "PRISTE_THREADS"};
constexpr uint64_t kDigestSeed = 1469598103934665603ULL;
// Trajectories a run completes at least, whatever --seconds says: p90 is
// reported only with ten samples beyond it.
constexpr int kMinTrajectories = 100;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  std::string commit = "unknown";
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args->seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (flag == "--size" && (value == "paper" || value == "tiny")) {
      args->tiny = value == "tiny";
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

// What `nproc` prints: the CPUs this process may run on.
int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Linear interpolation between closest ranks.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Counters, gauges and histogram count/sum of the process-wide registry.
using Counters = std::map<std::string, double>;

Counters ReadCounters() {
  const priste::MetricsRegistry::Snapshot snap =
      priste::MetricsRegistry::Global().TakeSnapshot();
  Counters out;
  for (const auto& c : snap.counters) out[c.name] = static_cast<double>(c.value);
  for (const auto& g : snap.gauges) out[g.name] = static_cast<double>(g.value);
  for (const auto& h : snap.histograms) {
    out[h.name + ".count"] = static_cast<double>(h.count);
    out[h.name + ".sum"] = h.sum_seconds;
  }
  return out;
}

double Get(const Counters& counters, const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, long attempted, long failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// Set-up and the timed region.
// ---------------------------------------------------------------------------

// Fresh constructions from a cold emission cache: engine construction,
// ladder pre-fill and one short warm-up user per thread, so no emission
// build and no first-touch cost lands in a timed trajectory. Returns each
// construction's wall time; `engine` keeps the last one.
std::vector<double> SetUp(const WorkloadSpec& spec, const World& world,
                          uint64_t seed, int threads,
                          std::unique_ptr<Engine>& engine) {
  std::vector<double> seconds;
  for (int r = 0; r < spec.setup_repeats; ++r) {
    engine.reset();
    lppm::EmissionCache::Shared().Clear();
    const Clock::time_point start = Clock::now();
    engine = std::make_unique<Engine>(spec, world);
    if (world.family != nullptr) {
      PrefillLadder(*world.family, spec.options, threads);
    }
    // Warm-up streams (negative) never overlap the timed ones.
    RunOnThreads(threads, [&](int w) {
      UserInput input = MakeInput(world, seed, -1 - w, r, world.event->end());
      (void)engine->Run(input.truth, input.rng);
    });
    seconds.push_back(Seconds(Clock::now() - start));
  }
  return seconds;
}

// One Run call of the timed region.
struct Record {
  int thread = 0;
  int index = 0;
  double seconds = 0.0;
  bool ok = false;
  std::string error;
  geo::Trajectory truth;
  core::RunResult run;
};

// Trajectory ids interleave threads: thread w's j-th user is j·W + w.
int TrajectoryId(const Record& r, int threads) {
  return r.index * threads + r.thread;
}

struct TimedRegion {
  std::vector<std::vector<Record>> records;  // per thread, in order
  std::vector<double> busy_seconds;          // per thread
  double seconds = 0.0;
  Counters before;
  Counters after;

  double Delta(const std::string& name) const {
    return Get(after, name) - Get(before, name);
  }
};

// A closed loop: each thread is one user who starts the next trajectory
// only when the previous release finished, until the deadline has passed
// and the thread has done its minimum.
TimedRegion RunTimed(const WorkloadSpec& spec, const World& world,
                     const Engine& engine, uint64_t seed, int threads,
                     double seconds) {
  const int min_per_thread =
      std::max((kMinTrajectories + threads - 1) / threads,
               spec.fixed_per_thread);
  TimedRegion region;
  region.records.resize(static_cast<size_t>(threads));
  region.busy_seconds.resize(static_cast<size_t>(threads));
  region.before = ReadCounters();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  RunOnThreads(threads, [&](int w) {
    std::vector<Record>& out = region.records[static_cast<size_t>(w)];
    Clock::time_point last = start;
    for (int j = 0; j < min_per_thread || Clock::now() < deadline; ++j) {
      UserInput input = MakeInput(world, seed, w, j, spec.horizon);
      const Clock::time_point t0 = Clock::now();
      Result<core::RunResult> result = engine.Run(input.truth, input.rng);
      last = Clock::now();
      Record& record = out.emplace_back();
      record.thread = w;
      record.index = j;
      record.seconds = Seconds(last - t0);
      record.ok = result.has_value();
      record.truth = std::move(input.truth);
      if (!record.ok) {
        record.error = result.error().ToString();
        continue;
      }
      record.run = *std::move(result);
    }
    region.busy_seconds[static_cast<size_t>(w)] = Seconds(last - start);
  });
  region.seconds = Seconds(Clock::now() - start);
  region.after = ReadCounters();
  return region;
}

// ---------------------------------------------------------------------------
// Outcomes of the timed region.
// ---------------------------------------------------------------------------

struct Outcome {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  long released_steps = 0;
  double release_per_s = 0.0;
  std::vector<double> latencies_ms;
  double mean_alpha = 0.0;
  double euclid_km = 0.0;
  double worst_ln_lr = 0.0;
  /// Digest of the fixed users' releases: a function of the seed alone.
  uint64_t fixed_digest = kDigestSeed;
  /// Checks at t = 1, which the engine serves in closed form and counts as
  /// prefix-cache checks whatever path the later steps take.
  long first_step_checks = 0;
};

// Checks every Run (ok, T in-grid cells, the independent likelihood-ratio
// audit) and folds the region into the end-to-end quantities. A Run error
// fails all T of its steps, a step whose check timed out fails itself.
Outcome Summarize(const WorkloadSpec& spec, const World& world,
                  const core::LiftedEventModel& model,
                  const TimedRegion& region, int threads) {
  std::vector<AuditResult> audits(static_cast<size_t>(threads));
  RunOnThreads(threads, [&](int w) {
    AuditResult& worst = audits[static_cast<size_t>(w)];
    for (const Record& r : region.records[static_cast<size_t>(w)]) {
      if (!r.ok || !worst.ok) continue;
      AuditResult audit = AuditRun(spec, world, model, r.truth, r.run);
      if (!audit.ok) {
        audit.failure = "trajectory " +
                        std::to_string(TrajectoryId(r, threads)) + ": " +
                        audit.failure;
        worst = audit;
      } else {
        worst.worst_ln_lr = std::max(worst.worst_ln_lr, audit.worst_ln_lr);
      }
    }
  });

  Outcome out;
  for (const AuditResult& audit : audits) {
    if (!audit.ok) {
      std::fprintf(stderr, "audit failed: %s\n", audit.failure.c_str());
      out.correct = false;
    }
    out.worst_ln_lr = std::max(out.worst_ln_lr, audit.worst_ln_lr);
  }
  double alpha_sum = 0.0;
  double euclid_sum = 0.0;
  long fixed_users = 0;
  for (int w = 0; w < threads; ++w) {
    long thread_steps = 0;
    for (const Record& r : region.records[static_cast<size_t>(w)]) {
      out.attempted += spec.horizon;
      out.latencies_ms.push_back(r.seconds * 1e3);
      if (!r.ok) {
        std::fprintf(stderr, "run failed: trajectory %d: %s\n",
                     TrajectoryId(r, threads), r.error.c_str());
        out.failed += spec.horizon;
        out.correct = false;
        continue;
      }
      for (const core::StepRecord& step : r.run.steps) {
        if (step.conservative_timeouts > 0) ++out.failed;
      }
      const core::StepRecord& first = r.run.steps.front();
      out.first_step_checks += first.halvings + (first.released_alpha > 0.0);
      thread_steps += r.run.released.length();
      if (r.index >= spec.fixed_per_thread) continue;
      // Every fixed user has the same T, so the mean of their means is the
      // mean over their steps.
      alpha_sum += eval::MeanReleasedAlpha(r.run);
      euclid_sum += eval::MeanEuclideanErrorKm(r.truth, r.run, world.grid);
      ++fixed_users;
      std::vector<double> released_alpha;
      for (const core::StepRecord& step : r.run.steps) {
        released_alpha.push_back(step.released_alpha);
      }
      out.fixed_digest =
          ReleaseDigest(out.fixed_digest, TrajectoryId(r, threads),
                        r.run.released.states(), released_alpha);
    }
    out.released_steps += thread_steps;
    // Each thread's rate over its own busy time, summed: no partial
    // trajectory is cut off at the deadline.
    out.release_per_s += Ratio(static_cast<double>(thread_steps),
                               region.busy_seconds[static_cast<size_t>(w)]);
  }
  out.mean_alpha = Ratio(alpha_sum, static_cast<double>(fixed_users));
  out.euclid_km = Ratio(euclid_sum, static_cast<double>(fixed_users));
  return out;
}

// Which Theorem-vector path served the timed checks, and whether any
// emission build landed inside a timed trajectory. A change that moves a
// workload off the path it exists for shows here, not as a speed-up.
void ReportPaths(const WorkloadSpec& spec, const TimedRegion& region,
                 const Outcome& outcome) {
  const double cold = region.Delta("release.cold_checks");
  const double rows =
      region.Delta("release.cached_checks") - outcome.first_step_checks;
  const double dense = region.Delta("release.dense_prefix_checks");
  const double first = static_cast<double>(outcome.first_step_checks);
  const double total = cold + rows + dense + first;
  const double misses = region.Delta("cache.emission.misses");
  std::printf(
      "engine path: cold chain %.1f%%, sparse rows %.1f%%, dense prefix "
      "%.1f%%, t=1 closed form %.1f%% of %.0f vector computations; emission "
      "builds in timed trajectories: %.0f\n",
      100.0 * Ratio(cold, total), 100.0 * Ratio(rows, total),
      100.0 * Ratio(dense, total), 100.0 * Ratio(first, total), total, misses);
  if (spec.expected_path == EnginePath::kColdChain && rows + dense > 0.0) {
    std::fprintf(stderr, "warning: %s left the cold chain\n",
                 spec.name.c_str());
  }
  if (spec.expected_path == EnginePath::kSparseRows && cold + dense > 0.0) {
    std::fprintf(stderr, "warning: %s left the sparse prefix rows\n",
                 spec.name.c_str());
  }
  if (misses > 0.0) {
    std::fprintf(stderr,
                 "warning: %.0f emission build(s) landed inside timed "
                 "trajectories\n",
                 misses);
  }
}

// ---------------------------------------------------------------------------
// The traced replay.
// ---------------------------------------------------------------------------

// One JSON object per span, written after the run; false on a write error.
bool WriteSpans(const std::string& path, const std::vector<Tracer>& tracers) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Tracer& tracer : tracers) {
    for (const Span& s : tracer.spans()) {
      std::fprintf(file,
                   "{\"name\": \"%s\", \"trajectory\": %d, \"step\": %d, "
                   "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                   LayerName(s.layer), s.trajectory, s.step,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(file) == 0;
}

struct TraceOutcome {
  bool correct = true;
  std::array<double, kNumLayers> layer_seconds{};
  std::vector<double> step_ms;
  double step_seconds = 0.0;
  double attributed_seconds = 0.0;
  /// Replayed wall time net of the repeated vector calls, and the Run time
  /// of the same trajectories, each run untraced just before its replay.
  double traced_net_seconds = 0.0;
  double untraced_seconds = 0.0;
  long steps = 0;

  double UnattributedShare() const {
    return 1.0 - Ratio(attributed_seconds, step_seconds);
  }
};

// Step time no span covers must stay below this share, or the per-layer
// numbers no longer account for the step.
constexpr double kMaxUnattributedShare = 0.10;

// Replays every thread's fixed users on that thread, in order, and checks
// that the replay released exactly what Run released. Each user also runs
// through Run, untraced, just before its replay: on a shared VM the CPU's
// speed drifts by up to 15% over the half minute between the timed region
// and the replay, which would swamp the tracing overhead.
TraceOutcome TraceFixedUsers(const WorkloadSpec& spec, const World& world,
                             const core::LiftedEventModel& model,
                             const Engine& engine, const TimedRegion& region,
                             uint64_t seed, int threads, const Outcome& outcome,
                             const std::string& spans_path) {
  const core::QpSolver solver(spec.options.qp);
  std::vector<Tracer> tracers(static_cast<size_t>(threads),
                              Tracer(Clock::now()));
  std::vector<std::vector<ReplayResult>> replays(static_cast<size_t>(threads));
  std::vector<double> untraced_seconds(static_cast<size_t>(threads));
  RunOnThreads(threads, [&](int w) {
    const std::vector<Record>& records = region.records[static_cast<size_t>(w)];
    for (int j = 0; j < spec.fixed_per_thread; ++j) {
      UserInput input = MakeInput(world, seed, w, j, spec.horizon);
      const Clock::time_point start = Clock::now();
      (void)engine.Run(input.truth, input.rng);
      untraced_seconds[static_cast<size_t>(w)] += Seconds(Clock::now() - start);
      replays[static_cast<size_t>(w)].push_back(
          Replay(spec, world, model, solver,
                 MakeInput(world, seed, w, j, spec.horizon),
                 TrajectoryId(records[static_cast<size_t>(j)], threads),
                 tracers[static_cast<size_t>(w)]));
    }
  });

  TraceOutcome out;
  for (const Tracer& tracer : tracers) {
    for (const Span& s : tracer.spans()) {
      out.layer_seconds[static_cast<size_t>(s.layer)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  uint64_t digest = kDigestSeed;
  for (int w = 0; w < threads; ++w) {
    out.untraced_seconds += untraced_seconds[static_cast<size_t>(w)];
    const std::vector<Record>& records = region.records[static_cast<size_t>(w)];
    for (int j = 0; j < spec.fixed_per_thread; ++j) {
      const Record& r = records[static_cast<size_t>(j)];
      const ReplayResult& rp =
          replays[static_cast<size_t>(w)][static_cast<size_t>(j)];
      if (!rp.ok) {
        std::fprintf(stderr, "replay failed: trajectory %d: %s\n",
                     TrajectoryId(r, threads), rp.error.c_str());
        out.correct = false;
        continue;
      }
      digest = ReleaseDigest(digest, TrajectoryId(r, threads), rp.released,
                             rp.released_alpha);
      for (size_t k = 0; k < rp.step_seconds.size(); ++k) {
        out.step_ms.push_back(rp.step_seconds[k] * 1e3);
        out.step_seconds += rp.step_seconds[k];
        out.attributed_seconds += rp.attributed_seconds[k];
      }
      out.steps += static_cast<long>(rp.released.size());
      out.traced_net_seconds += rp.seconds - rp.vectors_seconds;
    }
  }
  std::printf("trace: %ld steps of %d users replayed, release digest %016llx "
              "(%s)\n",
              out.steps, spec.fixed_per_thread * threads,
              static_cast<unsigned long long>(digest),
              digest == outcome.fixed_digest ? "matches Run" : "DIFFERS");
  if (digest != outcome.fixed_digest) {
    std::fprintf(stderr, "replay fidelity: traced releases differ from Run\n");
    out.correct = false;
  }
  if (!(out.UnattributedShare() < kMaxUnattributedShare)) {
    std::fprintf(stderr,
                 "trace coverage: %.1f%% of step time is in no span (limit "
                 "%.0f%%)\n",
                 100.0 * out.UnattributedShare(), 100.0 * kMaxUnattributedShare);
    out.correct = false;
  }
  if (!spans_path.empty() && !WriteSpans(spans_path, tracers)) {
    std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
    out.correct = false;
  }
  return out;
}

std::vector<Metric> PerLayerMetrics(const TimedRegion& region,
                                    const TraceOutcome& trace,
                                    const Outcome& outcome) {
  const auto ms_per_step = [&](Layer layer) {
    return Ratio(trace.layer_seconds[static_cast<size_t>(layer)] * 1e3,
                 static_cast<double>(trace.steps));
  };
  const auto delta = [&](const char* name) { return region.Delta(name); };
  const double steps = delta("release.step_seconds.count");
  const double checks = delta("release.check_seconds.count");
  const double halvings = delta("release.budget_halvings");
  const double paths = delta("release.cold_checks") +
                       delta("release.cached_checks") +
                       delta("release.dense_prefix_checks");
  const double frames =
      delta("release.frame_resets") + delta("release.frame_carries");
  const double slices =
      delta("qp.warm_accepted_slices") + delta("qp.warm_rejected_slices");
  const double lookups =
      delta("cache.emission.hits") + delta("cache.emission.misses");
  return {
      {"lppm.mechanism_ms", ms_per_step(Layer::kMechanism), "ms"},
      {"lppm.sample_ms", ms_per_step(Layer::kSample), "ms"},
      {"lppm.delta_set_ms", ms_per_step(Layer::kDeltaSet), "ms"},
      {"markov.predict_ms", ms_per_step(Layer::kPredict), "ms"},
      {"hmm.posterior_ms", ms_per_step(Layer::kPosterior), "ms"},
      {"core.check_ms", ms_per_step(Layer::kCheck), "ms"},
      {"core.vectors_ms", ms_per_step(Layer::kVectors), "ms"},
      {"core.qp_ms", ms_per_step(Layer::kCheck) - ms_per_step(Layer::kVectors),
       "ms"},
      {"core.commit_ms", ms_per_step(Layer::kCommit), "ms"},
      {"core.context_ms", ms_per_step(Layer::kContext), "ms"},
      {"trace.step_p50_ms", Percentile(trace.step_ms, 0.5), "ms"},
      {"trace.step_p99_ms", Percentile(trace.step_ms, 0.99), "ms"},
      {"trace.unattributed_share", trace.UnattributedShare(), "share"},
      {"trace.overhead_share",
       Ratio(trace.traced_net_seconds, trace.untraced_seconds) - 1.0, "share"},
      {"release.checks_per_step", Ratio(checks, steps), "checks/step"},
      {"release.halvings_per_step", Ratio(halvings, steps), "halvings/step"},
      {"release.accept_ratio", Ratio(checks - halvings, checks), "ratio"},
      {"release.cold_share", Ratio(delta("release.cold_checks"), paths),
       "share"},
      {"release.cached_share", Ratio(delta("release.cached_checks"), paths),
       "share"},
      {"release.dense_prefix_share",
       Ratio(delta("release.dense_prefix_checks"), paths), "share"},
      {"release.check_share",
       Ratio(delta("release.check_seconds.sum"),
             delta("release.step_seconds.sum")),
       "share"},
      {"release.frame_reset_ratio", Ratio(delta("release.frame_resets"), frames),
       "ratio"},
      {"qp.slices_per_check", Ratio(delta("qp.slices_solved"), checks),
       "slices/check"},
      {"qp.warm_accept_ratio", Ratio(delta("qp.warm_accepted_slices"), slices),
       "ratio"},
      {"qp.frame_hit_ratio",
       Ratio(delta("qp.support_frame_hits"), delta("qp.maximizations")),
       "ratio"},
      {"qp.timeouts", delta("qp.timeouts"), "count"},
      {"cache.emission.hit_ratio", Ratio(delta("cache.emission.hits"), lookups),
       "ratio"},
      {"cache.emission.timed_misses", delta("cache.emission.misses"), "count"},
      {"cache.emission.mb", Get(region.after, "cache.emission.bytes") / (1 << 20),
       "MB"},
      {"audit.worst_ln_lr", outcome.worst_ln_lr, "nat"},
  };
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: priste_perfbench --workload plm|deltaloc|cloak "
                 "--seed N --seconds S --trace 0|1 [--size paper|tiny] "
                 "[--commit ID] [--spans FILE]\n");
    return 2;
  }
  for (const char* name : kGuardedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "priste_perfbench: refusing to run with %s set; it would "
                   "change the workload\n",
                   name);
      return 2;
    }
  }
  const std::optional<WorkloadSpec> found =
      FindWorkload(args.workload, args.tiny);
  if (!found) {
    std::fprintf(stderr, "priste_perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *found;
  const int nproc = UsableCpus();
  const int threads = nproc;  // one user per usable CPU, never more
  const World world = MakeWorld(spec);

  std::unique_ptr<Engine> engine;
  const std::vector<double> setup_seconds =
      SetUp(spec, world, args.seed, threads, engine);
  const TimedRegion region =
      RunTimed(spec, world, *engine, args.seed, threads, args.seconds);
  const core::TwoWorldModel model(world.chain.transition(), world.event);
  const Outcome outcome = Summarize(spec, world, model, region, threads);

  std::printf(
      "provenance: {\"workload\": \"%s\", \"size\": \"%s\", \"build_type\": "
      "\"%s\", \"compiler\": \"%s\", \"nproc\": %d, \"threads\": %d, "
      "\"simd_dispatch\": %.0f, \"seed\": %llu, \"commit\": \"%s\"}\n",
      spec.name.c_str(), args.tiny ? "tiny" : "paper", PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, nproc, threads, Get(region.after, "simd.dispatch"),
      static_cast<unsigned long long>(args.seed), args.commit.c_str());
  std::printf("setup: median %.4f s of %zu construction(s)\n",
              Percentile(setup_seconds, 0.5), setup_seconds.size());
  std::printf(
      "timed: %zu trajectories, %ld released steps in %.2f s; trajectory "
      "p50 %.1f ms, p90 %.1f ms (n=%zu); audit worst |ln LR| %.4f\n",
      outcome.latencies_ms.size(), outcome.released_steps, region.seconds,
      Percentile(outcome.latencies_ms, 0.5),
      Percentile(outcome.latencies_ms, 0.9), outcome.latencies_ms.size(),
      outcome.worst_ln_lr);
  std::printf("release digest: %016llx (first %d users of each thread)\n",
              static_cast<unsigned long long>(outcome.fixed_digest),
              spec.fixed_per_thread);
  ReportPaths(spec, region, outcome);

  if (!args.trace) {
    PrintResult(outcome.correct, outcome.attempted, outcome.failed,
                {{"release_per_s", outcome.release_per_s, "1/s"},
                 {"traj_p50_ms", Percentile(outcome.latencies_ms, 0.5), "ms"},
                 {"traj_p90_ms", Percentile(outcome.latencies_ms, 0.9), "ms"},
                 {"setup_s", Percentile(setup_seconds, 0.5), "s"},
                 {"peak_rss_mb", PeakRssMb(), "MB"},
                 {"mean_alpha", outcome.mean_alpha, "budget"},
                 {"euclid_km", outcome.euclid_km, "km"}});
    return outcome.correct ? 0 : 1;
  }
  const TraceOutcome trace =
      TraceFixedUsers(spec, world, model, *engine, region, args.seed, threads,
                      outcome, args.spans_path);
  const bool correct = outcome.correct && trace.correct;
  PrintResult(correct, outcome.attempted, outcome.failed,
              PerLayerMetrics(region, trace, outcome));
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
