#ifndef PRISTE_HMM_EMISSION_MODEL_H_
#define PRISTE_HMM_EMISSION_MODEL_H_

#include "priste/common/status.h"
#include "priste/linalg/matrix.h"
#include "priste/linalg/vector.h"

namespace priste::hmm {

/// An emission matrix E with E(i, o) = Pr(output o | true state s_i) — the
/// paper's model of an LPPM (row-stochastic when the output alphabet equals
/// the state space, which is the case for all mechanisms in this library).
/// The column p̃_o (Table I) is the vector of emission probabilities of one
/// observation across all true states.
class EmissionMatrix {
 public:
  /// Validates that `e` is row-stochastic with finite entries (each true
  /// state emits a distribution over outputs), then divides each row by its
  /// sum; entries in [−tol, 0) become 0.
  static Result<EmissionMatrix> Create(linalg::Matrix e, double tol = 1e-6);

  /// Validates as Create does, with no negative entry allowed, and keeps
  /// every entry bit for bit: for a caller that normalizes its rows itself.
  static Result<EmissionMatrix> CreateNormalized(linalg::Matrix e,
                                                 double tol = 1e-6);

  /// The m×m identity emission — the mechanism that reports the truth.
  static EmissionMatrix Identity(size_t num_states);

  /// The uniform emission — the mechanism that reveals nothing (the α→0
  /// limit the paper invokes for Algorithm 2's convergence argument).
  static EmissionMatrix Uniform(size_t num_states, size_t num_outputs);

  size_t num_states() const { return matrix_.rows(); }
  size_t num_outputs() const { return matrix_.cols(); }
  const linalg::Matrix& matrix() const { return matrix_; }

  double operator()(size_t state, size_t output) const {
    return matrix_(state, output);
  }

  /// The emission column p̃_o for observation `output`.
  linalg::Vector EmissionColumn(int output) const;

  /// The output distribution of true state `state` (row `state`).
  linalg::Vector OutputDistribution(int state) const;

 private:
  explicit EmissionMatrix(linalg::Matrix e) : matrix_(std::move(e)) {}

  linalg::Matrix matrix_;
};

}  // namespace priste::hmm

#endif  // PRISTE_HMM_EMISSION_MODEL_H_
