#ifndef PRISTE_EVENT_AUTOMATON_H_
#define PRISTE_EVENT_AUTOMATON_H_

#include <vector>

#include "priste/common/status.h"
#include "priste/event/boolean_expr.h"

namespace priste::event {

/// Compiles an ARBITRARY Boolean spatiotemporal event — any BoolExpr over
/// (location, time) predicates — into a deterministic automaton that
/// consumes the user's map state at each window timestamp.
///
/// This generalizes the paper's two-possible-world method (which covers
/// PRESENCE and PATTERN) to the full event language of Definition II.1:
/// secrets like "visited the clinic on at least two days" or "was at A and
/// NOT at B afterwards" compile to small automata, and the lifted-chain
/// machinery (core::AutomatonWorldModel) then computes priors, joints and
/// Theorem IV.1 checks for them with the same per-timestep cost profile.
///
/// States are residual Boolean functions: after consuming the states at
/// timestamps start..t, the automaton state is the original expression
/// partially evaluated on that prefix, canonicalized by constant folding,
/// AND/OR flattening, literal deduplication and child sorting. Distinct
/// canonical forms may denote equal functions (the reduction is not BDD-
/// exact), which can only add states — never wrong transitions. Compilation
/// fails with ResourceExhausted past `max_states`.
class EventAutomaton {
 public:
  /// `num_states` is the map size m (predicates must reference states
  /// < num_states and timestamps >= 1). The expression must contain at
  /// least one predicate.
  static Result<EventAutomaton> Compile(const BoolExpr& expr, size_t num_states,
                                        int max_states = 512);

  /// First / last timestamp the expression references.
  int start() const { return start_; }
  int end() const { return end_; }

  size_t num_map_states() const { return num_map_states_; }
  int num_automaton_states() const { return static_cast<int>(accepting_.size()); }
  int initial_state() const { return initial_; }

  /// δ(q, t, s): the successor when the user is at map state s at window
  /// timestamp t ∈ [start, end].
  int Next(int q, int t, int map_state) const;

  /// True for the constant-TRUE sink — the "event happened" world. Every
  /// state reachable after consuming timestamp `end` is constant.
  bool IsAccepting(int q) const;

  /// Runs the automaton over a trajectory covering the window; must agree
  /// with BoolExpr::Evaluate (property-tested).
  bool Accepts(const geo::Trajectory& trajectory) const;

 private:
  EventAutomaton() = default;

  int start_ = 0;
  int end_ = 0;
  size_t num_map_states_ = 0;
  int initial_ = 0;
  // transitions_[t - start][q * m + s] = successor state.
  std::vector<std::vector<int>> transitions_;
  std::vector<bool> accepting_;
};

}  // namespace priste::event

#endif  // PRISTE_EVENT_AUTOMATON_H_
