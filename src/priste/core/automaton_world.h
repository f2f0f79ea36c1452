#ifndef PRISTE_CORE_AUTOMATON_WORLD_H_
#define PRISTE_CORE_AUTOMATON_WORLD_H_

#include <memory>

#include "priste/common/status.h"
#include "priste/core/event_model.h"
#include "priste/event/automaton.h"
#include "priste/markov/schedule.h"

namespace priste::core {

/// The k-world generalization of the paper's two-possible-world method: the
/// user's Markov chain lifted with the state of an event automaton
/// (event::EventAutomaton), supporting ANY Boolean spatiotemporal event, not
/// just PRESENCE and PATTERN.
///
/// Lifted states are indexed q·m + s (automaton state q, map state s). For
/// a window timestamp τ = t+1 the lifted step moves (q, s) → (δ(q, τ, s'), s')
/// with probability M_t(s, s'); outside the window the automaton state is
/// frozen. Forward/column steps cost O(k·m²) — the same per-step profile as
/// the two-world method, with k the automaton size (k = O(window) for
/// PRESENCE/PATTERN-shaped events, larger for genuinely richer secrets such
/// as "visited at least twice").
///
/// Downstream (JointCalculator, PrivacyQuantifier, PriSTE) consumes this
/// through the LiftedEventModel interface, so arbitrary events get the full
/// quantify-and-calibrate pipeline.
class AutomatonWorldModel : public LiftedEventModel {
 public:
  /// Compiles `expr` over the chain's state space. Fails when the expression
  /// has no predicates or the automaton exceeds `max_automaton_states`.
  static Result<std::shared_ptr<AutomatonWorldModel>> Create(
      markov::TransitionSchedule schedule, const event::BoolExpr& expr,
      int max_automaton_states = 512);

  size_t num_states() const override { return schedule_.num_states(); }
  size_t lifted_size() const override {
    return static_cast<size_t>(automaton_.num_automaton_states()) * num_states();
  }
  int event_start() const override { return automaton_.start(); }
  int event_end() const override { return automaton_.end(); }

  const event::EventAutomaton& automaton() const { return automaton_; }

  linalg::Vector LiftInitial(const linalg::Vector& pi) const override;
  linalg::Vector ContractColumn(const linalg::Vector& col) const override;

  /// Blockwise kernels: the base chain is applied once per live automaton
  /// state through its span kernels (CSR fast path when the chain is
  /// sparse), and the automaton transition only permutes slices — the
  /// (k·m)×(k·m) lifted operator is never formed.
  void StepRowSpanInto(const double* v, int t, double* out) const override;
  /// One base column product per automaton slice of each vector, in turn.
  void StepColumnSpansInto(const double* const* v, double* const* out,
                           size_t count, int t) const override;

 private:
  AutomatonWorldModel(markov::TransitionSchedule schedule,
                      event::EventAutomaton automaton)
      : schedule_(std::move(schedule)), automaton_(std::move(automaton)) {}

  markov::TransitionSchedule schedule_;
  event::EventAutomaton automaton_;
};

}  // namespace priste::core

#endif  // PRISTE_CORE_AUTOMATON_WORLD_H_
