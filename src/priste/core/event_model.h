#ifndef PRISTE_CORE_EVENT_MODEL_H_
#define PRISTE_CORE_EVENT_MODEL_H_

#include <cstddef>
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
/// states × m map states, laid out as k blocks of m (block q holds event
/// state q); timestamps are 1-based; step t connects time t to t+1; the
/// accepting mask marks lifted states where the event is true once the
/// window [event_start, event_end] has been fully consumed.
///
/// A new model implements the eight pure virtuals: the four sizes, the
/// LiftInitial/ContractColumn pair, and the two step kernels over raw
/// lifted spans, StepRowSpanInto and StepColumnSpansInto. The kernels are
/// what the hot loops run, so they must not allocate per call and should
/// apply the base chain per event state rather than sweep a (k·m)² operator.
/// Everything else is written once here: the Vector forms of the steps, and
/// the emission product, which is the same for every model because
/// observations are independent of the event state.
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

  /// Row step kernel: out = v · M_t over spans of lifted_size() doubles.
  /// `out` must not alias `v`.
  virtual void StepRowSpanInto(const double* v, int t, double* out) const = 0;

  /// Column step kernel: out[i] = M_t · v[i] for i < count, 1 <= count <= 2,
  /// each output bit-equal to its own count-1 call, so a model may stream
  /// its base matrix once for both. No output may alias any input.
  virtual void StepColumnSpansInto(const double* const* v, double* const* out,
                                   size_t count, int t) const = 0;

  /// Vector forms of the kernels; every vector is lifted_size(). StepRow
  /// allocates its result, the *Into forms write `out`, which must not
  /// alias an input.
  linalg::Vector StepRow(const linalg::Vector& v, int t) const;
  void StepRowInto(const linalg::Vector& v, int t, linalg::Vector& out) const;
  void StepColumnInto(const linalg::Vector& v, int t,
                      linalg::Vector& out) const;

  /// Two column steps at the same t: o1 = M_t · v1, o2 = M_t · v2. The
  /// quantifier advances its b̄ and c̄ chains in lockstep through this.
  void StepColumnPairInto(const linalg::Vector& v1, const linalg::Vector& v2,
                          int t, linalg::Vector& o1, linalg::Vector& o2) const;

  /// Emission product v ← p̃ᴰ_o · v: the m-entry column `emission`
  /// replicated across the k event blocks, entry-wise and in place. The
  /// span form works on lifted_size() doubles, the unit the release engine
  /// stores its row chains in.
  void ApplyEmissionInPlace(const linalg::Vector& emission,
                            linalg::Vector& v) const;
  void ApplyEmissionSpanInPlace(const linalg::Vector& emission,
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
