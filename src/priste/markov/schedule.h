#ifndef PRISTE_MARKOV_SCHEDULE_H_
#define PRISTE_MARKOV_SCHEDULE_H_

#include <vector>

#include "priste/markov/transition_matrix.h"

namespace priste::markov {

/// A per-timestep assignment of transition matrices — the paper's
/// time-varying Markov model (Section III, footnote 3: "if the transition
/// matrices at different t are not identical, our approach still works by
/// re-computing Equations (4)–(8) with the matrix at t").
///
/// `AtStep(t)` is the matrix governing the step t → t+1 (t is 1-based).
/// Three shapes cover practice:
///  * Homogeneous — one matrix forever (the common case);
///  * Cyclic — a repeating pattern, e.g. day/night regimes;
///  * PerStep — explicit matrices for a prefix of steps, after which the
///    last matrix repeats.
class TransitionSchedule {
 public:
  /// The time-homogeneous schedule.
  static TransitionSchedule Homogeneous(TransitionMatrix m);

  /// Cycles through `matrices` with period matrices.size(): step t uses
  /// matrices[(t−1) mod period]. Requires a non-empty list with matching
  /// state counts.
  static Result<TransitionSchedule> Cyclic(std::vector<TransitionMatrix> matrices);

  /// Uses matrices[t−1] for steps 1..n, then repeats the last matrix.
  static Result<TransitionSchedule> PerStep(std::vector<TransitionMatrix> matrices);

  size_t num_states() const { return matrices_.front().num_states(); }

  /// The matrix for step t → t+1 (1-based).
  const TransitionMatrix& AtStep(int t) const {
    return matrices_[static_cast<size_t>(IndexAtStep(t))];
  }

  /// A stable identifier of the distinct matrix used at step t — a cache
  /// key for lifted-matrix construction.
  int IndexAtStep(int t) const;

  /// True when every step uses the same matrix.
  bool is_homogeneous() const { return matrices_.size() == 1; }

  size_t num_distinct_matrices() const { return matrices_.size(); }

  /// Marginal propagation through this schedule: p_{t+1} = p_t · M_t,
  /// starting from p_1 = `initial`, returning p at 1-based `t`.
  linalg::Vector MarginalAt(const linalg::Vector& initial, int t) const;

 private:
  enum class Mode { kCyclic, kPerStepThenRepeat };

  TransitionSchedule(Mode mode, std::vector<TransitionMatrix> matrices)
      : mode_(mode), matrices_(std::move(matrices)) {}

  Mode mode_;
  std::vector<TransitionMatrix> matrices_;
};

}  // namespace priste::markov

#endif  // PRISTE_MARKOV_SCHEDULE_H_
