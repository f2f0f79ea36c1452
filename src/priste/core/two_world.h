#ifndef PRISTE_CORE_TWO_WORLD_H_
#define PRISTE_CORE_TWO_WORLD_H_

#include <vector>

#include "priste/core/event_model.h"
#include "priste/event/event.h"
#include "priste/linalg/matrix.h"
#include "priste/markov/schedule.h"
#include "priste/markov/transition_matrix.h"

namespace priste::core {

/// The paper's two-possible-world construction (Section III-B): a lifted
/// Markov chain over 2m states — world FALSE ("event not (yet) true") and
/// world TRUE — whose per-timestep transition matrices M_t (Equations 4–8)
/// encode a PRESENCE or PATTERN event so that event probabilities reduce to
/// linear-algebra chains, linear in the number of predicates.
///
/// Conventions: timestamps are 1-based; TransitionAt(t) is the lifted
/// transition from time t to t+1; the destination-time region governs
/// capture (entering the region at time τ = t+1 moves probability mass
/// between worlds).
///
/// Hot path: the two step kernels never materialize the 2m×2m operator.
/// Every window block of M_t is a column-rescaled copy of the base matrix M
/// (keep = M·(1−d)ᴰ, enter = M·dᴰ), so one lifted step factors into two base
/// products plus O(m) world mixing — and the base products run on the
/// chain's CSR fast path when the chain is sparse. TransitionAt() builds the
/// dense 2m×2m matrix on demand: it is the oracle the tests check both
/// kernels against.
///
/// Time-varying chains (Section III footnote 3) are supported through a
/// markov::TransitionSchedule.
///
/// Events whose window starts at t = 1 are handled by splitting the initial
/// distribution across the worlds (LiftInitial) — the generalization of the
/// paper's [π, 0] initial vector, which assumes start > 1.
class TwoWorldModel : public LiftedEventModel {
 public:
  /// Time-homogeneous chain.
  TwoWorldModel(markov::TransitionMatrix base, event::EventPtr ev);

  /// Time-varying chain.
  TwoWorldModel(markov::TransitionSchedule schedule, event::EventPtr ev);

  size_t num_states() const override { return schedule_.num_states(); }
  size_t lifted_size() const override { return 2 * num_states(); }
  int event_start() const override { return event_->start(); }
  int event_end() const override { return event_->end(); }

  const markov::TransitionSchedule& schedule() const { return schedule_; }
  const event::SpatiotemporalEvent& event() const { return *event_; }

  /// The lifted transition M_t for the step t → t+1 (t >= 1) as a dense
  /// 2m×2m matrix [ff ft; tf tt] (Eq. 3). Outside [start−1, end−1] this is
  /// the block-diagonal matrix (Eq. 5/8). Oracle/test API — the step kernels
  /// never build it; each call builds it afresh.
  linalg::Matrix TransitionAt(int t) const;

  linalg::Vector LiftInitial(const linalg::Vector& pi) const override;
  linalg::Vector ContractColumn(const linalg::Vector& col) const override;
  void StepRowSpanInto(const double* v, int t, double* out) const override;
  /// Every base product of the step — up to four for a pair — in one
  /// BackwardSpans pass, which computes bit-equal inputs once (the
  /// quantifier's c̄ has bit-equal halves, and a 0/1 window mix keeps them).
  void StepColumnSpansInto(const double* const* v, double* const* out,
                           size_t count, int t) const override;

 private:
  /// Shape of the lifted step t → t+1 (Equations 4–8).
  struct StepForm {
    bool in_window = false;
    /// True for the Eq. (4)/(6) shape [keep enter; 0 M] (FALSE feeds the
    /// region mass into TRUE; TRUE absorbing); false for the Eq. (7) shape
    /// [M 0; keep enter].
    bool enter_true = false;
    /// Region indicator d at the destination timestamp τ = t+1 (window only).
    const linalg::Vector* indicator = nullptr;
  };

  StepForm FormAt(int t) const;

  markov::TransitionSchedule schedule_;
  event::EventPtr event_;
  /// RegionAt(t+1).Indicator() for each window step t, precomputed so the
  /// step kernels never allocate: window_indicators_[t - first_window_step],
  /// or window_indicators_[0] alone for a fixed-region event, whatever its
  /// window's length.
  std::vector<linalg::Vector> window_indicators_;
  int first_window_step_ = 0;
  int last_window_step_ = -1;
};

}  // namespace priste::core

#endif  // PRISTE_CORE_TWO_WORLD_H_
