#ifndef PRISTE_CORE_JOINT_H_
#define PRISTE_CORE_JOINT_H_

#include <memory>
#include <vector>

#include "priste/core/event_model.h"
#include "priste/linalg/vector.h"

namespace priste::core {

/// Streaming evaluation of the joint probabilities of Lemmas III.2/III.3:
/// after pushing the emission columns p̃_{o_1}, …, p̃_{o_t} (raw
/// probabilities, one per released observation), the calculator reports
///
///   JointEvent()    = Pr(EVENT, o_1..o_t)
///   Marginal()      = Pr(o_1..o_t)
///   JointNotEvent() = Pr(¬EVENT, o_1..o_t)
///
/// in O(m²) per push by maintaining the lifted forward vector
/// α_t = [π,0] p̃ᴰ_{o_1} ∏ (M_{i−1} p̃ᴰ_{o_i}) and pairing it with the
/// model's precomputed suffix (t ≤ end) or the [0,1] mask (t > end, where
/// the worlds no longer mix). Mathematically identical to the paper's
/// Eq. (13)/(14); see the lemma cross-check tests.
class JointCalculator {
 public:
  /// `model` must outlive the calculator; `pi` is the initial distribution.
  JointCalculator(const LiftedEventModel* model, linalg::Vector pi);

  /// Advances one timestamp with the emission column of the observation
  /// released at that time.
  void Push(const linalg::Vector& emission_column);

  /// Number of observations pushed so far.
  int current_time() const { return t_; }

  double JointEvent() const;
  double Marginal() const;
  double JointNotEvent() const { return Marginal() - JointEvent(); }

  /// The likelihood ratio Pr(o_1..o_t | EVENT) / Pr(o_1..o_t | ¬EVENT)
  /// whose bound defines ε-spatiotemporal event privacy (Eq. 1); requires a
  /// non-degenerate prior (0 < Pr(EVENT) < 1).
  double LikelihoodRatio() const;

 private:
  const LiftedEventModel* model_;
  linalg::Vector pi_;
  double prior_event_;
  linalg::Vector alpha_;    // lifted forward vector, size k·m
  linalg::Vector scratch_;  // step target, swapped with alpha_ per push
  int t_ = 0;
};

}  // namespace priste::core

#endif  // PRISTE_CORE_JOINT_H_
