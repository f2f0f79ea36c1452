#ifndef PRISTE_MARKOV_ESTIMATOR_H_
#define PRISTE_MARKOV_ESTIMATOR_H_

#include <vector>

#include "priste/common/status.h"
#include "priste/markov/transition_matrix.h"

namespace priste::markov {

/// Maximum-likelihood training of a transition matrix from observed
/// trajectories — the C++ equivalent of the R `markovchain` fit the paper
/// runs on Geolife (Section V-A). `smoothing` is an additive (Laplace)
/// pseudo-count per cell; with smoothing = 0, rows with no outgoing
/// observations fall back to uniform so the result is always a valid chain.
Result<TransitionMatrix> EstimateTransitionMatrix(
    const std::vector<std::vector<int>>& trajectories, size_t num_states,
    double smoothing = 0.0);

/// Empirical distribution of the first state across trajectories, with the
/// same additive smoothing.
Result<linalg::Vector> EstimateInitialDistribution(
    const std::vector<std::vector<int>>& trajectories, size_t num_states,
    double smoothing = 0.0);

}  // namespace priste::markov

#endif  // PRISTE_MARKOV_ESTIMATOR_H_
