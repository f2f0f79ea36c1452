#ifndef PRISTE_CORE_QP_SOLVER_H_
#define PRISTE_CORE_QP_SOLVER_H_

#include <cstdint>
#include <vector>

#include "priste/common/thread_annotations.h"
#include "priste/common/timer.h"
#include "priste/core/simplex_lp.h"
#include "priste/linalg/vector.h"

namespace priste::core {

/// The quadratic-programming engine behind Theorem IV.1's arbitrary-prior
/// check — this library's substitute for the paper's IBM CPLEX (DESIGN.md §1).
///
/// Both Theorem conditions have the *bilinear* form
///
///   f(π) = (π·a)(π·d) + π·l
///
/// because the paper's quadratic matrices are combinations of outer products
/// of the Theorem vectors ā, b̄, c̄ (rank ≤ 2). The solver exploits this:
/// for a fixed slice value x = π·a the objective is *linear* in π, so each
/// slice is an exact bounded-variable LP (simplex_lp.h) with one or two
/// equality rows; a grid-plus-refinement sweep over x combined with
/// projected-gradient ascent multistarts approximates the global maximum.
///
/// A Deadline bounds the work; when it expires before the sweep finishes,
/// the result is flagged timed_out and PriSTE's conservative-release rule
/// (Section IV-C) treats the check as failed — privacy is never certified on
/// a partial search.
class QpSolver {
 public:
  /// The feasible set for the attacker prior π.
  enum class ConstraintSet {
    /// 0 ≤ π_i ≤ 1 and Σπ_i = 1 — every probability distribution. Default:
    /// this is the semantically meaningful "arbitrary initial probability".
    kSimplex,
    /// 0 ≤ π_i ≤ 1 only — the paper's literal Eq. (15)/(16) relaxation;
    /// a superset of the simplex, hence more conservative.
    kBox,
  };

  struct Options {
    ConstraintSet constraint = ConstraintSet::kSimplex;
    /// Slice-grid resolution over x = π·a.
    int grid_points = 65;
    /// Local refinement passes (ternary-style shrink around the best slice).
    int refine_iters = 24;
    /// Projected-gradient-ascent restarts / iterations per restart.
    int pga_restarts = 4;
    int pga_iters = 120;
    /// When the best maximum found lies in (−escalation_band, 0], the sweep
    /// re-runs at escalation_factor× grid density before certifying — the
    /// near-boundary case is where a missed global max would matter.
    double escalation_band = 1e-6;
    int escalation_factor = 8;
    /// When set (default), Maximize() detects the joint support of
    /// (a, d, l) and solves every slice LP — and runs every
    /// projected-gradient iterate — in the reduced dimension |support| (+1
    /// slack on the simplex). Off-support coordinates contribute nothing to
    /// the objective, so they are resolved in closed form: the slack mass is
    /// spread uniformly across them when the argmax is scattered back. With
    /// δ-location-set emissions the Theorem vectors are supported on a
    /// handful of cells, shrinking each LP by ~m/|support|.
    bool exploit_support = true;
    /// When set (default), Maximize() (a) chains the optimal basis of each
    /// slice LP into the next slice of the sweep (adjacent slices differ only
    /// in one RHS entry, so the basis usually stays feasible — Phase 1 and
    /// most Phase-2 pivots are skipped, with a cold fallback when it does
    /// not), and (b) honours a caller-held WarmState across calls: the
    /// memoized support frame, the previous optimum as a PGA/incumbent seed,
    /// and the previous call's final slice basis. Off = cold two-phase
    /// solves for every slice and no cross-call state (the sweep itself is
    /// identical either way).
    bool warm_start = true;
    uint64_t seed = 0xC0FFEE;
  };

  /// f(π) = (π·a)(π·d) + π·l. Vectors must share one size.
  struct Objective {
    linalg::Vector a;
    linalg::Vector d;
    linalg::Vector l;

    double Evaluate(const linalg::Vector& pi) const {
      return pi.Dot(a) * pi.Dot(d) + pi.Dot(l);
    }
  };

  struct Result {
    /// Best objective value found (lower bound on the true maximum). Always
    /// finite: a feasible incumbent is seeded before the sweep, so deadline
    /// expiry can never surface −inf or an empty argmax.
    double max_value = 0.0;
    /// The maximizing prior found (always a feasible point of the full
    /// n-dimensional constraint set, even when slices were solved reduced).
    linalg::Vector argmax;
    /// True when the deadline expired before the sweep finished.
    bool timed_out = false;
    /// Number of LP slices solved (diagnostics / Table III accounting).
    int slices_solved = 0;
    /// Dimension the slice LPs / PGA iterates ran in (n when no support
    /// reduction applied; |support|+1 on the simplex, |support| on the box).
    size_t reduced_dim = 0;
    /// Warm-start diagnostics: slice LPs solved from a reinstated basis vs
    /// slices whose warm basis was rejected (cold fallback). Both stay 0 when
    /// Options.warm_start is off.
    int warm_accepted_slices = 0;
    int warm_rejected_slices = 0;
    /// True when a caller-held WarmState's memoized support frame covered
    /// this objective (no per-call union extension was needed).
    bool support_frame_reused = false;
  };

  /// Caller-held state threading warm starts through a *sequence* of related
  /// maximizations — PriSTE's release step solves near-identical QPs for
  /// every candidate budget α, and adjacent timestamps share the observation
  /// prefix. The state memoizes the joint-support frame (unioned across
  /// calls, so all reduced problems live in one stable coordinate frame),
  /// the previous optimum (seeds the incumbent and the first PGA restart),
  /// and the previous call's final slice basis. One state per objective
  /// stream — or per objective *pair* when threaded through MaximizePair,
  /// which shares the frame and basis chain across the two Theorem
  /// conditions and keeps one argmax seed per condition. Safe to use from
  /// one thread at a time.
  struct WarmState {
    bool has_support = false;
    /// Sorted union of the joint supports seen so far (the frame).
    std::vector<size_t> support;
    /// Previous optimum in frame coordinates (support + simplex slack), with
    /// has_argmax false until the first successful call or after a frame
    /// extension invalidates it.
    bool has_argmax = false;
    linalg::Vector argmax;
    /// Second-objective optimum for the two-objective resolve (MaximizePair
    /// seeds the first sweep from `argmax` and the second from `argmax2`;
    /// single-objective Maximize never touches it).
    bool has_argmax2 = false;
    linalg::Vector argmax2;
    /// Final slice basis of the previous call, in frame coordinates.
    LpWarmStart lp;
    /// Exact-RHS basis memo shared by every sweep run against this state
    /// (attached to the per-call SliceLpSolver family): the second Theorem
    /// condition's sweep, the escalation re-sweep, and the next call's
    /// identical grid all revisit bit-identical slice RHS values, whose
    /// memoized bases reinstate with no Phase 1 and no dual repair. Frame
    /// coordinates — cleared with the frame.
    SliceBasisMemo slice_memo;
    /// Joint-support size of the most recent call's objective(s), recorded
    /// BEFORE the frame union — the release engine's adaptive frame-reset
    /// policy compares it against the frame size to measure support drift.
    size_t last_scan_support = 0;
    /// Cumulative diagnostics across the state's lifetime.
    long support_hits = 0;
    long warm_accepts = 0;
    long warm_rejects = 0;

    /// Drops the memoized frame (and the frame-coordinate argmaxes/basis
    /// that depend on it) while keeping the cumulative diagnostics. The
    /// release engine calls this at commits chosen by its frame-reset
    /// policy: a fresh union instead of inheriting the trajectory's drift.
    void ResetFrame() {
      has_support = false;
      support.clear();
      has_argmax = false;
      has_argmax2 = false;
      lp.valid = false;
      slice_memo.Clear();
    }
  };

  QpSolver() = default;
  explicit QpSolver(Options options) : options_(options) {}

  const Options& options() const { return options_; }

  /// Approximately maximizes `objective` over the constraint set, stopping
  /// at `deadline`. With a non-null `warm` (and Options.warm_start on), the
  /// call reads and updates the caller's warm state. Warm starts only *add*
  /// to the cold search — the seed is an extra incumbent/slice, the sweep's
  /// refinement trajectory is driven by the slice values alone (shared with
  /// the cold path), and each slice LP reaches its unique optimal value from
  /// a warm basis or cold two-phase fallback — so the returned maximum is
  /// never below the cold path's, and matches it to floating-point noise in
  /// practice. A lower bound can only get tighter: warm starts can flip a
  /// check toward detecting a violation, never toward certifying one away.
  [[nodiscard]] Result Maximize(const Objective& objective,
                                const Deadline& deadline,
                                WarmState* warm = nullptr) const;

  /// Two-objective resolve for objectives sharing the same bilinear factor
  /// `a` — the two Theorem IV.1 conditions, which differ only in (d, l).
  /// Because the slice constraint matrix [a; 1] is identical for both, the
  /// joint support is scanned once over the pair, the frame/reduced problem
  /// is built once, and ONE SliceLpSolver family serves both sweeps — the
  /// second maximization starts from the first's final basis, so its Phase-1
  /// work disappears entirely. With a non-null `warm` (and
  /// Options.warm_start), the shared frame, the per-objective argmax seeds
  /// (`argmax`/`argmax2`), and the basis chain persist across calls; with a
  /// null `warm` the pair still shares the frame and family within the call.
  /// The sweeps run sequentially (the family is stateful); each returns the
  /// same certified maximum as an independent Maximize call up to
  /// floating-point noise, by the same warm-only-adds argument. With
  /// Options.warm_start off this degrades to two independent cold
  /// maximizations.
  void MaximizePair(const Objective& first, const Objective& second,
                    const Deadline& deadline, WarmState* warm,
                    Result* first_result, Result* second_result) const;

 private:
  Options options_;
};

/// Projects `v` onto {π : Σπ = 1, 0 ≤ π ≤ 1} by bisection on the shift τ
/// with Σ clamp(v_i − τ, 0, 1) = 1, run to floating-point tolerance; any
/// residual mass is then redistributed only across coordinates with room in
/// the needed direction, so the result always satisfies max ≤ 1 and
/// Σ = 1 (± 1e-12) — no global rescale that could push entries past the cap.
/// Exposed for tests.
linalg::Vector ProjectOntoCappedSimplex(const linalg::Vector& v);

/// Per-coordinate-cap form: projects onto {π : Σπ = 1, 0 ≤ π_i ≤ upper_i}.
/// Requires Σ upper ≥ 1 (the set is empty otherwise); when Σ upper == 1 the
/// unique feasible point `upper` is returned. The support-aware QP uses this
/// with a slack coordinate capped at the number of off-support cells.
linalg::Vector ProjectOntoCappedSimplex(const linalg::Vector& v,
                                        const linalg::Vector& upper);

/// In-place core of the per-coordinate-cap projection. The PGA inner loop
/// calls this once per backtrack step, so it must not allocate: the result
/// overwrites `v` and the only scratch is a thread-local breakpoint buffer
/// whose capacity is amortized across calls. Both returning overloads
/// delegate here.
PRISTE_HOT_PATH void ProjectOntoCappedSimplexInPlace(
    linalg::Vector& v, const linalg::Vector& upper);

}  // namespace priste::core

#endif  // PRISTE_CORE_QP_SOLVER_H_
