#ifndef PRISTE_MARKOV_MARKOV_CHAIN_H_
#define PRISTE_MARKOV_MARKOV_CHAIN_H_

#include <vector>

#include "priste/common/random.h"
#include "priste/linalg/vector.h"
#include "priste/markov/transition_matrix.h"

namespace priste::markov {

/// A first-order Markov chain paired with an initial distribution π; simulates
/// the user trajectories {u_1, …, u_T} of the paper's problem setting.
class MarkovChain {
 public:
  /// `initial` must be a probability vector with size equal to the number of
  /// states of `transition`.
  MarkovChain(TransitionMatrix transition, linalg::Vector initial);

  const TransitionMatrix& transition() const { return transition_; }
  const linalg::Vector& initial() const { return initial_; }
  size_t num_states() const { return transition_.num_states(); }

  /// Samples a trajectory of `length` states (u_1 drawn from π).
  std::vector<int> Sample(int length, Rng& rng) const;

  /// Marginal distribution of u_t (1-based); p_1 = π, p_{t+1} = p_t M.
  linalg::Vector MarginalAt(int t) const;

  /// Exact probability of a full trajectory: π[u_1]·∏ M(u_{i},u_{i+1}).
  double TrajectoryProbability(const std::vector<int>& trajectory) const;

 private:
  TransitionMatrix transition_;
  linalg::Vector initial_;
};

}  // namespace priste::markov

#endif  // PRISTE_MARKOV_MARKOV_CHAIN_H_
