#ifndef PRISTE_CORE_EVENT_MODEL_H_
#define PRISTE_CORE_EVENT_MODEL_H_

#include <vector>

#include "priste/linalg/vector.h"

namespace priste::core {

/// Abstract interface for a Markov chain lifted with event-tracking state.
///
/// The paper's two-possible-world construction (TwoWorldModel) is the
/// instance for PRESENCE and PATTERN; AutomatonWorldModel generalizes it to
/// arbitrary Boolean events by tracking a deterministic event automaton.
/// Everything downstream — Lemma III.1 priors, the Lemma III.2/III.3 joint
/// calculator, and the Theorem IV.1 quantifier — is written against this
/// interface, so PriSTE protects any event a lifted model can encode.
///
/// Conventions: lifted vectors have `lifted_size()` = k·m entries, k event
/// states × m map states; timestamps are 1-based; step t connects time t to
/// t+1; the accepting mask marks lifted states where the event is true once
/// the window [event_start, event_end] has been fully consumed.
class LiftedEventModel {
 public:
  virtual ~LiftedEventModel() = default;

  /// Number of map states m.
  virtual size_t num_states() const = 0;

  /// Dimension of the lifted space (k·m).
  virtual size_t lifted_size() const = 0;

  virtual int event_start() const = 0;
  virtual int event_end() const = 0;

  /// Lifts an initial distribution π over map states into the lifted space
  /// (handles events whose window starts at time 1 by consuming that step).
  virtual linalg::Vector LiftInitial(const linalg::Vector& pi) const = 0;

  /// Adjoint of LiftInitial: the m-vector g with LiftInitial(π)·col == π·g
  /// for every π — the contraction producing Theorem IV.1's ā, b̄, c̄.
  virtual linalg::Vector ContractColumn(const linalg::Vector& col) const = 0;

  /// Forward propagation of a lifted row vector: v ← v · M_t.
  virtual linalg::Vector StepRow(const linalg::Vector& v, int t) const = 0;

  /// Column propagation: v ← M_t · v (suffix and backward recursions).
  virtual linalg::Vector StepColumn(const linalg::Vector& v, int t) const = 0;

  /// Entry-wise product with the emission column replicated across the k
  /// event states (observations are independent of the event state).
  virtual linalg::Vector ApplyEmission(const linalg::Vector& emission,
                                       const linalg::Vector& v) const = 0;

  /// Allocation-free variants for the per-timestep hot loops (quantifier
  /// vector chains, joint forward pushes, suffix precompute). `out` must be
  /// lifted_size() and must NOT alias `v`; the defaults fall back to the
  /// allocating calls, and both built-in models override them with blockwise
  /// kernels that apply the base chain per event state — O(k · base-product)
  /// instead of sweeping a materialized (k·m)² operator.
  virtual void StepRowInto(const linalg::Vector& v, int t,
                           linalg::Vector& out) const;
  virtual void StepColumnInto(const linalg::Vector& v, int t,
                              linalg::Vector& out) const;

  /// Two column steps at the same t: o1 = M_t · v1, o2 = M_t · v2, each
  /// bit-equal to its own StepColumnInto. The quantifier advances its b̄ and
  /// c̄ chains in lockstep through this, so a model can stream its base
  /// matrix once for both; the default makes the two calls. Neither output
  /// may alias either input.
  virtual void StepColumnPairInto(const linalg::Vector& v1,
                                  const linalg::Vector& v2, int t,
                                  linalg::Vector& o1,
                                  linalg::Vector& o2) const;

  /// In-place emission product: v ← p̃ᴰ_o · v (entry-wise, so aliasing is
  /// inherent and safe).
  virtual void ApplyEmissionInPlace(const linalg::Vector& emission,
                                    linalg::Vector& v) const;

  /// Raw-span forms over lifted spans of lifted_size() doubles — the unit
  /// the RowBlock-backed release engine stores its row chains in. The
  /// emission defaults implement the documented k-block layout directly on
  /// the span; the step default round-trips through temporary Vectors, and
  /// both built-in models override it with their zero-copy blockwise
  /// kernels. `out` must not alias `v`.
  virtual void StepRowSpanInto(const double* v, int t, double* out) const;
  virtual void ApplyEmissionSpanInPlace(const linalg::Vector& emission,
                                        double* v) const;

  /// Indicator of event-true lifted states after the window has been fully
  /// consumed (the two-world [0, 1] mask, generalized).
  const linalg::Vector& AcceptingMask() const { return accepting_mask_; }

  /// Suffix column v_t = ∏_{i=t}^{end−1} M_i · AcceptingMask for
  /// 1 <= t <= end: per lifted state at time t, the probability the event
  /// ends up true. Precomputed by InitializeDerived().
  const linalg::Vector& SuffixTrue(int t) const;

  /// Theorem IV.1's ā: ā_i = Pr(EVENT | u_1 = s_i); the prior is π·ā.
  const linalg::Vector& PriorContraction() const { return a_bar_; }

 protected:
  /// Derived constructors call this LAST (after their virtual methods are
  /// usable): fixes the accepting mask and precomputes the suffix chain and
  /// the prior contraction.
  void InitializeDerived(linalg::Vector accepting_mask);

 private:
  linalg::Vector accepting_mask_;
  std::vector<linalg::Vector> suffix_;  // suffix_[t-1] = v_t for t = 1..end
  linalg::Vector a_bar_;
};

}  // namespace priste::core

#endif  // PRISTE_CORE_EVENT_MODEL_H_
