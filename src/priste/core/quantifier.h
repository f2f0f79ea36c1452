#ifndef PRISTE_CORE_QUANTIFIER_H_
#define PRISTE_CORE_QUANTIFIER_H_

#include <vector>

#include "priste/common/timer.h"
#include "priste/core/qp_solver.h"
#include "priste/core/event_model.h"
#include "priste/linalg/vector.h"

namespace priste::core {

/// The Theorem IV.1 vectors, contracted onto the attacker-prior variable:
/// ā_i = Pr(EVENT | u_1 = s_i) (from a, Eq. 17), b̄_i and c̄_i the
/// corresponding contractions of b, c (Eqs. 18–20). With them the theorem's
/// conditions are the bilinear forms
///
///   Eq. (15):  (π·ā)·((e^ε−1)(π·b̄) − e^ε(π·c̄)) + π·b̄  ≤ 0
///   Eq. (16):  (π·ā)·((e^ε−1)(π·b̄) + (π·c̄)) − e^ε(π·b̄) ≤ 0
///
/// For any probability π: π·ā = Pr(EVENT), π·b̄ = Pr(EVENT, o_1..o_t) and
/// π·c̄ = Pr(o_1..o_t) — possibly jointly rescaled when emission columns are
/// normalized for numerical stability (the conditions are scale-invariant in
/// (b̄, c̄), see quantifier tests).
struct TheoremVectors {
  linalg::Vector a_bar;
  linalg::Vector b_bar;
  linalg::Vector c_bar;
  int t = 0;
};

/// Outcome of the ε-spatiotemporal-event-privacy check.
struct PrivacyCheckResult {
  /// True when both conditions were certified ≤ 0 over the whole prior set.
  bool satisfied = false;
  /// True when the QP search hit its deadline — PriSTE's conservative
  /// release treats this as "not satisfied".
  bool timed_out = false;
  /// The maxima of the two condition LHSs over the prior simplex.
  double max_condition15 = 0.0;
  double max_condition16 = 0.0;
  /// The prior achieving the larger violation (diagnostics).
  linalg::Vector worst_pi;
};

/// Computes Theorem IV.1 quantities for a two-world event model and checks
/// ε-spatiotemporal event privacy, either for a fixed attacker prior or for
/// every prior via the QP solver (Section IV-A).
class PrivacyQuantifier {
 public:
  /// `model` must outlive the quantifier. When `normalize_emissions` is set
  /// (default), each emission column is rescaled to max-norm 1 before
  /// entering the chain products — a pure (b̄, c̄) rescaling that prevents
  /// underflow on long horizons without changing any condition's sign.
  explicit PrivacyQuantifier(const LiftedEventModel* model,
                             bool normalize_emissions = true);

  const LiftedEventModel& model() const { return *model_; }

  /// Computes (ā, b̄, c̄) for the observation prefix whose emission columns
  /// are `emissions` (p̃_{o_1} … p̃_{o_t}); handles both the during-event
  /// (Lemma III.2 / Eq. 18) and after-event (Lemma III.3 / Eqs. 19–20)
  /// regimes. Cost: O(t·m²) (O(t·nnz) on a sparse chain).
  TheoremVectors ComputeVectors(const std::vector<linalg::Vector>& emissions) const;

  /// LHS of Eq. (15)/(16) for a fixed prior.
  static double Condition15(const TheoremVectors& v, const linalg::Vector& pi,
                            double epsilon);
  static double Condition16(const TheoremVectors& v, const linalg::Vector& pi,
                            double epsilon);

  /// ε-spatiotemporal event privacy at this prefix for a *fixed* attacker
  /// prior (both conditions ≤ tol).
  static bool CheckFixedPrior(const TheoremVectors& v, const linalg::Vector& pi,
                              double epsilon, double tol = 1e-12);

  /// The arbitrary-prior check of Section IV-A: maximizes both conditions
  /// over the prior simplex with `solver` under `deadline`.
  PrivacyCheckResult CheckArbitraryPrior(const TheoremVectors& v, double epsilon,
                                         const QpSolver& solver,
                                         const Deadline& deadline) const;

 private:
  const LiftedEventModel* model_;
  bool normalize_emissions_;
};

}  // namespace priste::core

#endif  // PRISTE_CORE_QUANTIFIER_H_
