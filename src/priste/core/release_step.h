#ifndef PRISTE_CORE_RELEASE_STEP_H_
#define PRISTE_CORE_RELEASE_STEP_H_

#include <vector>

#include "priste/core/event_model.h"
#include "priste/core/qp_solver.h"
#include "priste/core/quantifier.h"
#include "priste/linalg/row_block.h"
#include "priste/linalg/vector.h"

namespace priste::core {

/// Knobs for the release-step evaluation engine (Section IV-C's inner loop).
struct ReleaseStepOptions {
  /// Sparse-row budget, with a PINNED boundary: the sparse prefix rows
  /// engage exactly when 1 ≤ |supp(p̃_{o_1})| ≤ min(max_cache_support, m−1)
  /// — support == max_cache_support is INCLUSIVE (still sparse-cached).
  /// Larger (dense) first columns go to the dense-prefix rows when the
  /// horizon hint clears 2m (see SetHorizonHint) and to the cold chain
  /// otherwise (counted in ReleaseStepDiagnostics.dense_fallbacks). 0 is the
  /// master off switch: it disables the whole prefix cache — sparse rows,
  /// dense rows, AND the t = 1 closed form — so every check runs the cold
  /// chain; the CI cold-path matrix relies on this. The
  /// PRISTE_MAX_CACHE_SUPPORT environment variable, when set to a valid
  /// non-negative integer (strictly parsed), overrides this knob at context
  /// construction.
  size_t max_cache_support = 64;
};

/// Counters the engine accumulates over a run (cheap; always collected).
struct ReleaseStepDiagnostics {
  /// Theorem-vector computations served by the sparse incremental prefix
  /// rows (per model, per candidate).
  long cached_checks = 0;
  /// Theorem-vector computations served by the dense-prefix row family
  /// (per model, per candidate).
  long dense_prefix_checks = 0;
  /// Theorem-vector computations recomputed from t = 1 (cold chain).
  long cold_checks = 0;
  /// Candidate checks (CheckCandidate calls — once per check, NOT once per
  /// model) that ran cold because the first column's support exceeded
  /// max_cache_support and the dense-prefix scheme declined.
  long dense_fallbacks = 0;
  /// Lifted row-extension steps applied at commits (per model, per support
  /// cell).
  long prefix_extensions = 0;
};

/// Aggregate outcome of checking one candidate column against every event
/// model (early exit on the first failing model, like the release loops).
struct ReleaseCheckOutcome {
  bool all_satisfied = false;
  /// True when the failing model's check timed out (conservative release).
  bool timed_out = false;
  /// Per-model results in model order; truncated after the failing model.
  std::vector<PrivacyCheckResult> per_model;
};

/// The release-step evaluation engine: owns, per event model, the quantifier
/// and the incremental Theorem-vector state, and serves every candidate check
/// of Algorithm 2/3's budget-halving search.
///
/// The incremental state exploits the structure of the Lemma III.2/III.3
/// chain: ContractColumn reads a lifted column only through the first
/// observation's emission product, so b̄ and c̄ are supported on supp(p̃_{o_1})
/// for the *entire* run, and each support cell s contributes
///
///   b̄_s = s_1·p̃_{o_1}[s] · ( r_s · seed ),   r_s = Cᵀe_s · M_1 D_2 … M_{t−1} D_t
///
/// where the lifted row r_s extends by one StepRow + one emission product per
/// *accepted* timestamp — shared by every candidate of the next release step,
/// which then costs one fused replicate-and-dot pass per support row
/// (O(support · lifted size)) instead of a full O(t) chain per check. When
/// the first column is *dense* the same identity holds with support = every
/// map state: the dense-prefix scheme keeps all m row chains (the matrix
/// R = Cᵀ·M₁D₂…, extended row-wise once per accepted timestamp) and
/// evaluates candidates with the same kernels, amortizing the m-row
/// extension over long runs (see SetHorizonHint). Past the event window a
/// second, accepting-masked row family yields b̄ while the unmasked family
/// yields c̄ (Eqs. 19/20). Numerical agreement with the cold chain is
/// ≤ 1e-9 at every prefix for both schemes (tested).
///
/// Not thread-safe; create one per Run().
class ReleaseStepContext {
 public:
  /// `models` and `solver` must outlive the context. `normalize_emissions`
  /// mirrors PrivacyQuantifier's knob (must match what the cold path would
  /// use).
  ReleaseStepContext(std::vector<const LiftedEventModel*> models,
                     const QpSolver* solver, bool normalize_emissions = true,
                     ReleaseStepOptions options = {});

  /// Tells the engine how many timestamps the run will commit (the drivers
  /// pass the trajectory length). A dense first column engages the
  /// dense-prefix rows — m lifted row chains r_i = Cᵀe_i · M₁D₂…M_{t−1}D_t,
  /// one per map state, extended once per *accepted* timestamp, so a check
  /// costs O(m · lifted size) instead of a fresh O(t) chain — iff the hint
  /// is ≥ 2m: the break-even of the m-row extension against the ≥ 2
  /// candidate checks per step a halving search implies. Without a hint (0)
  /// dense first columns stay on the cold chain. Only read until the first
  /// Commit decides the mode.
  void SetHorizonHint(int horizon) { horizon_hint_ = horizon; }

  /// Number of accepted (committed) release columns so far.
  int committed_steps() const { return t_; }

  const ReleaseStepDiagnostics& diagnostics() const { return diagnostics_; }
  const ReleaseStepOptions& options() const { return options_; }

  /// Evaluates `column` as the candidate emission for timestamp
  /// committed_steps() + 1 against every model, with a fresh per-model QP
  /// deadline of `qp_threshold_seconds` (non-positive = unlimited).
  ReleaseCheckOutcome CheckCandidate(const linalg::Vector& column,
                                     double epsilon,
                                     double qp_threshold_seconds);

  /// Accepts `column` as the release for timestamp committed_steps() + 1 and
  /// extends the per-model prefix state.
  void Commit(const linalg::Vector& column);

  /// Theorem vectors for `column` as the next candidate of `model_index` —
  /// served by the engaged cache (sparse rows or dense-prefix rows) when
  /// active, the cold chain otherwise. Exposed for the cached-vs-cold
  /// equivalence tests.
  TheoremVectors CandidateVectors(size_t model_index,
                                  const linalg::Vector& column);

 private:
  // kCached (sparse rows) and kDense (dense-prefix rows) share the row
  // machinery and the fused candidate kernels — kDense's support is every
  // nonzero cell of the first column — while kCold replays the committed
  // history through the quantifier.
  enum class Mode { kUndecided, kCached, kDense, kCold };

  struct ModelEngine {
    explicit ModelEngine(const LiftedEventModel* m, bool normalize)
        : model(m), quantifier(m, normalize) {}

    const LiftedEventModel* model;
    PrivacyQuantifier quantifier;
    // Cached-mode state: one lifted row per support cell (u = r_s above),
    // plus the accepting-masked family once the event window has been fully
    // consumed — each family a single contiguous 64-byte-aligned RowBlock,
    // so the fused replicate-and-dot kernels stream one flat buffer instead
    // of chasing per-row heap vectors. step_rows holds StepRow(rows, t_) —
    // computed once per release step, shared by all candidates, and recycled
    // back into `rows` by Commit with an O(1) whole-block swap.
    linalg::RowBlock rows;
    linalg::RowBlock rows_masked;
    linalg::RowBlock step_rows;
    linalg::RowBlock step_rows_masked;
    bool step_rows_ready = false;
    bool step_rows_masked_ready = false;
    // ContractColumn(ones), for the direct t = 1 formula (lazily built).
    linalg::Vector ones_contract;
    bool ones_contract_ready = false;
  };

  /// Cold mode reads the candidate from the back of history_, where the
  /// caller has appended it (once per check, not once per model).
  TheoremVectors VectorsImpl(size_t model_index, const linalg::Vector& column);
  bool UsesCachePath() const {
    return mode_ == Mode::kCached || mode_ == Mode::kDense ||
           (mode_ == Mode::kUndecided && options_.max_cache_support > 0);
  }

  // Cached-path helpers (shared by the sparse and dense-prefix rows).
  void EnsureStepRows(ModelEngine& engine, bool need_masked);
  TheoremVectors CachedVectors(ModelEngine& engine,
                               const linalg::Vector& column);
  void DecideMode(const linalg::Vector& first_column);
  void BuildMaskedRows(ModelEngine& engine);

  double CandidateScale(const linalg::Vector& column) const;

  std::vector<ModelEngine> engines_;
  const QpSolver* solver_;
  bool normalize_emissions_;
  ReleaseStepOptions options_;
  ReleaseStepDiagnostics diagnostics_;

  Mode mode_ = Mode::kUndecided;
  // True when DecideMode fell back to the cold chain *because* the first
  // column was dense (drives the dense_fallbacks counter).
  bool cold_is_dense_fallback_ = false;
  int t_ = 0;  // committed timestamps
  int horizon_hint_ = 0;
  // Shared across models: the committed first column's support (map states,
  // sorted) and its scaled values s_1·p̃_{o_1}[s] (cached/dense modes only).
  std::vector<size_t> support_;
  std::vector<double> support_scale_;
  // Cold-mode committed history (exactly what the cold chain takes).
  std::vector<linalg::Vector> history_;
};

}  // namespace priste::core

#endif  // PRISTE_CORE_RELEASE_STEP_H_
