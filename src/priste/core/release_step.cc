#include "priste/core/release_step.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "priste/common/check.h"
#include "priste/common/metrics.h"
#include "priste/common/thread_annotations.h"
#include "priste/common/strings.h"
#include "priste/common/timer.h"
#include "priste/linalg/kernels.h"

namespace priste::core {
namespace {

// Process-wide mirrors of the per-context diagnostics counters, so one CLI
// run (or a whole experiment sweep) can be read off `--metrics` without
// plumbing RunResult diagnostics through every driver. Registered once;
// Increment is a relaxed atomic add.
struct ReleaseMetrics {
  Counter& dense_prefix_checks =
      MetricsRegistry::Global().GetCounter("release.dense_prefix_checks");
  Counter& cached_checks =
      MetricsRegistry::Global().GetCounter("release.cached_checks");
  Counter& cold_checks =
      MetricsRegistry::Global().GetCounter("release.cold_checks");
  Histogram& check_seconds =
      MetricsRegistry::Global().GetHistogram("release.check_seconds");

  static ReleaseMetrics& Get() {
    static ReleaseMetrics* metrics = new ReleaseMetrics();
    return *metrics;
  }
};

}  // namespace

ReleaseStepContext::ReleaseStepContext(
    std::vector<const LiftedEventModel*> models, const QpSolver* solver,
    bool normalize_emissions, ReleaseStepOptions options)
    : solver_(solver),
      normalize_emissions_(normalize_emissions),
      options_(options) {
  PRISTE_CHECK(solver_ != nullptr);
  PRISTE_CHECK_MSG(!models.empty(), "release-step context needs >= 1 model");
  // PRISTE_MAX_CACHE_SUPPORT overrides the sparse-row budget (0 = force the
  // cold chain everywhere — the CI cold-path matrix). Strictly parsed;
  // garbage warns and keeps the configured knob (not ReadIntEnv: its
  // warning names the fallback value, which here is "keep", not a number).
  if (const char* env = std::getenv("PRISTE_MAX_CACHE_SUPPORT");
      env != nullptr && *env != '\0') {
    int parsed = 0;
    if (ParseInt32(env, &parsed)) {
      options_.max_cache_support = static_cast<size_t>(parsed);
    } else {
      std::fprintf(stderr,
                   "priste: ignoring invalid PRISTE_MAX_CACHE_SUPPORT=\"%s\" "
                   "(want an integer >= 0); keeping max_cache_support=%zu\n",
                   env, options_.max_cache_support);
    }
  }
  engines_.reserve(models.size());
  const size_t m = models.front()->num_states();
  for (const LiftedEventModel* model : models) {
    PRISTE_CHECK(model != nullptr);
    PRISTE_CHECK(model->num_states() == m);
    engines_.emplace_back(model, normalize_emissions);
  }
}

double ReleaseStepContext::CandidateScale(const linalg::Vector& column) const {
  if (!normalize_emissions_) return 1.0;
  const double scale = column.MaxAbs();
  PRISTE_CHECK_MSG(scale > 0.0, "emission column is all-zero");
  return 1.0 / scale;
}

void ReleaseStepContext::EnsureStepRows(ModelEngine& engine, bool need_masked) {
  PRISTE_CHECK(t_ >= 1);
  const size_t lifted = engine.model->lifted_size();
  if (!engine.step_rows_ready) {
    if (engine.step_rows.rows() != support_.size() ||
        engine.step_rows.cols() != lifted) {
      engine.step_rows.Reset(support_.size(), lifted);
    }
    for (size_t i = 0; i < support_.size(); ++i) {
      engine.model->StepRowSpanInto(engine.rows.Row(i), t_,
                                    engine.step_rows.Row(i));
    }
    engine.step_rows_ready = true;
  }
  if (need_masked && !engine.step_rows_masked_ready) {
    PRISTE_CHECK_MSG(!engine.rows_masked.empty(),
                     "masked prefix rows requested before the event ended");
    if (engine.step_rows_masked.rows() != support_.size() ||
        engine.step_rows_masked.cols() != lifted) {
      engine.step_rows_masked.Reset(support_.size(), lifted);
    }
    for (size_t i = 0; i < support_.size(); ++i) {
      engine.model->StepRowSpanInto(engine.rows_masked.Row(i), t_,
                                    engine.step_rows_masked.Row(i));
    }
    engine.step_rows_masked_ready = true;
  }
}

PRISTE_HOT_PATH TheoremVectors ReleaseStepContext::CachedVectors(
    ModelEngine& engine, const linalg::Vector& column) {
  const LiftedEventModel& model = *engine.model;
  const size_t m = model.num_states();
  const int t = t_ + 1;
  const int end = model.event_end();
  const bool during = t <= end;
  EnsureStepRows(engine, !during);
  const double s_c = CandidateScale(column);

  TheoremVectors out;
  out.t = t;
  out.a_bar = model.PriorContraction();
  out.b_bar = linalg::Vector(m);
  out.c_bar = linalg::Vector(m);
  const linalg::Vector* seed = during ? &model.SuffixTrue(t) : nullptr;
  const size_t lifted = model.lifted_size();
  const size_t k = lifted / m;

  // Fused replicate-and-dot: the candidate is treated as replicated across
  // the k event blocks without materializing the replication, and during
  // the window ONE pass over each row yields both the suffix-seeded b̄ sum
  // and the all-ones c̄ sum (Eq. 18). Past the window the accepting-masked
  // family carries b̄, the unmasked family c̄ (Eqs. 19/20). Rows live in
  // contiguous 64-byte-aligned RowBlock storage, so the kernels stream one
  // flat buffer.
  const double* cand = column.data();
  for (size_t i = 0; i < support_.size(); ++i) {
    double bsum;
    double csum;
    if (during) {
      linalg::kernels::ReplicateDotPair(engine.step_rows.Row(i), k, m, cand,
                                        seed->data(), &bsum, &csum);
    } else {
      bsum = linalg::kernels::ReplicateDot(engine.step_rows_masked.Row(i), k,
                                           m, cand);
      csum = linalg::kernels::ReplicateDot(engine.step_rows.Row(i), k, m,
                                           cand);
    }
    const double w = support_scale_[i] * s_c;
    out.b_bar[support_[i]] = w * bsum;
    out.c_bar[support_[i]] = w * csum;
  }
  return out;
}

TheoremVectors ReleaseStepContext::VectorsImpl(size_t model_index,
                                               const linalg::Vector& column) {
  PRISTE_CHECK(model_index < engines_.size());
  ModelEngine& engine = engines_[model_index];
  const LiftedEventModel& model = *engine.model;
  const size_t m = model.num_states();
  PRISTE_CHECK(column.size() == m);

  if (UsesCachePath()) {
    if (mode_ == Mode::kDense) {
      ++diagnostics_.dense_prefix_checks;
      ReleaseMetrics::Get().dense_prefix_checks.Increment();
    } else {
      ++diagnostics_.cached_checks;
      ReleaseMetrics::Get().cached_checks.Increment();
    }
    if (t_ >= 1) return CachedVectors(engine, column);
    // t = 1 direct form: the contraction commutes with the candidate's
    // emission product, so b̄ = s_c·p̃ ∘ ā and c̄ = s_c·p̃ ∘ C(1) — no chain.
    if (!engine.ones_contract_ready) {
      engine.ones_contract =
          model.ContractColumn(linalg::Vector::Ones(model.lifted_size()));
      engine.ones_contract_ready = true;
    }
    const double s_c = CandidateScale(column);
    TheoremVectors out;
    out.t = 1;
    out.a_bar = model.PriorContraction();
    out.b_bar = linalg::Vector(m);
    out.c_bar = linalg::Vector(m);
    for (size_t j = 0; j < m; ++j) {
      const double v = s_c * column[j];
      out.b_bar[j] = v * out.a_bar[j];
      out.c_bar[j] = v * engine.ones_contract[j];
    }
    return out;
  }

  ++diagnostics_.cold_checks;
  ReleaseMetrics::Get().cold_checks.Increment();
  return engine.quantifier.ComputeVectors(history_);
}

ReleaseCheckOutcome ReleaseStepContext::CheckCandidate(
    const linalg::Vector& column, double epsilon, double qp_threshold_seconds) {
  const Timer check_timer;
  ReleaseCheckOutcome out;
  out.all_satisfied = true;
  out.per_model.reserve(engines_.size());
  // Cold path: append the candidate to the history once for all models.
  const bool push_once = !UsesCachePath();
  if (push_once) {
    history_.push_back(column);
    // Once per fallen-back *check* (not per model): cold because the first
    // column was dense and the dense-prefix scheme declined.
    if (mode_ == Mode::kCold && cold_is_dense_fallback_) {
      ++diagnostics_.dense_fallbacks;
    }
  }
  for (size_t i = 0; i < engines_.size(); ++i) {
    ModelEngine& engine = engines_[i];
    const TheoremVectors vectors = VectorsImpl(i, column);
    const Deadline deadline = qp_threshold_seconds > 0.0
                                  ? Deadline::After(qp_threshold_seconds)
                                  : Deadline::Infinite();
    const PrivacyCheckResult check = engine.quantifier.CheckArbitraryPrior(
        vectors, epsilon, *solver_, deadline);
    out.per_model.push_back(check);
    if (!check.satisfied) {
      out.all_satisfied = false;
      out.timed_out = check.timed_out;
      break;
    }
  }
  if (push_once) history_.pop_back();
  ReleaseMetrics::Get().check_seconds.Record(check_timer.ElapsedSeconds());
  return out;
}

void ReleaseStepContext::DecideMode(const linalg::Vector& first_column) {
  const size_t m = first_column.size();
  std::vector<size_t> support;
  std::vector<double> values;
  for (size_t j = 0; j < m; ++j) {
    const double v = first_column[j];
    if (v != 0.0) {
      support.push_back(j);
      values.push_back(v);
    }
  }

  // Pinned boundary (inclusive): sparse rows iff
  // 1 ≤ |support| ≤ min(max_cache_support, m − 1). Wider supports are
  // "dense" and take the dense-prefix rows past the break-even T ≥ 2m: the
  // m-row extension costs ~2 family sweeps of m rows per commit, the cold
  // chain ~C·t per step with C ≥ 2 candidates and average t = T/2.
  const bool cache_on = options_.max_cache_support > 0 && !support.empty();
  const bool sparse_fit = support.size() <= options_.max_cache_support &&
                          support.size() < m;
  const bool dense_fit =
      horizon_hint_ > 0 && static_cast<size_t>(horizon_hint_) >= 2 * m;
  Mode mode = Mode::kCold;
  if (cache_on && sparse_fit) {
    mode = Mode::kCached;
  } else if (cache_on && dense_fit) {
    mode = Mode::kDense;
  } else if (cache_on) {
    cold_is_dense_fallback_ = true;
  }

  if (mode == Mode::kCold) {
    mode_ = Mode::kCold;
    history_.push_back(first_column);
    t_ = 1;
    return;
  }

  mode_ = mode;
  const double s_c = CandidateScale(first_column);
  support_ = std::move(support);
  support_scale_.resize(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    support_scale_[i] = s_c * values[i];
  }
  for (ModelEngine& engine : engines_) {
    // r_s^{(1)} = Cᵀ e_s — the contraction adjoint of the support basis
    // vector, which is exactly LiftInitial (the documented adjoint pair).
    const size_t lifted = engine.model->lifted_size();
    engine.rows.Reset(support_.size(), lifted);
    for (size_t i = 0; i < support_.size(); ++i) {
      const linalg::Vector row = engine.model->LiftInitial(
          linalg::Vector::Unit(engine.model->num_states(), support_[i]));
      std::copy(row.data(), row.data() + lifted, engine.rows.Row(i));
    }
  }
  t_ = 1;
  for (ModelEngine& engine : engines_) {
    if (t_ == engine.model->event_end()) BuildMaskedRows(engine);
  }
}

void ReleaseStepContext::BuildMaskedRows(ModelEngine& engine) {
  const linalg::Vector& mask = engine.model->AcceptingMask();
  const size_t lifted = engine.model->lifted_size();
  engine.rows_masked.Reset(support_.size(), lifted);
  for (size_t i = 0; i < support_.size(); ++i) {
    linalg::kernels::HadamardInto(engine.rows.Row(i), mask.data(),
                                  engine.rows_masked.Row(i), lifted);
  }
  engine.step_rows_masked_ready = false;
}

void ReleaseStepContext::Commit(const linalg::Vector& column) {
  PRISTE_CHECK(column.size() == engines_.front().model->num_states());
  if (mode_ == Mode::kUndecided) {
    DecideMode(column);
    return;
  }
  if (mode_ == Mode::kCold) {
    history_.push_back(column);
    ++t_;
    return;
  }

  const double s_c = CandidateScale(column);
  for (ModelEngine& engine : engines_) {
    const bool has_masked = !engine.rows_masked.empty();
    EnsureStepRows(engine, has_masked);
    const size_t lifted = engine.model->lifted_size();
    const auto extend = [&](double* step_row) {
      engine.model->ApplyEmissionSpanInPlace(column, step_row);
      if (s_c != 1.0) linalg::kernels::Scale(step_row, s_c, lifted);
      ++diagnostics_.prefix_extensions;
    };
    for (size_t i = 0; i < support_.size(); ++i) {
      extend(engine.step_rows.Row(i));
      if (has_masked) extend(engine.step_rows_masked.Row(i));
    }
    // Every support row was just extended in place inside step_rows, so the
    // commit is an O(1) whole-block swap; the retired `rows` storage becomes
    // the next step's step_rows scratch.
    swap(engine.rows, engine.step_rows);
    if (has_masked) swap(engine.rows_masked, engine.step_rows_masked);
    engine.step_rows_ready = false;
    engine.step_rows_masked_ready = false;
  }
  ++t_;
  for (ModelEngine& engine : engines_) {
    if (engine.rows_masked.empty() && t_ == engine.model->event_end()) {
      BuildMaskedRows(engine);
    }
  }
}

TheoremVectors ReleaseStepContext::CandidateVectors(
    size_t model_index, const linalg::Vector& column) {
  if (UsesCachePath()) return VectorsImpl(model_index, column);
  history_.push_back(column);
  TheoremVectors out = VectorsImpl(model_index, column);
  history_.pop_back();
  return out;
}

}  // namespace priste::core
