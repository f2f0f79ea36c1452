#ifndef PRISTE_HMM_FORWARD_BACKWARD_H_
#define PRISTE_HMM_FORWARD_BACKWARD_H_

#include <vector>

#include "priste/common/status.h"
#include "priste/linalg/vector.h"
#include "priste/markov/transition_matrix.h"

namespace priste::hmm {

/// Result of the forward-backward pass over T observations (Eqs. 10–12),
/// computed with per-step scaling (Rabiner-style) so long trajectories never
/// underflow: each forward vector is renormalized to sum to 1 and the scale
/// factors are accumulated in log-space.
struct ForwardBackwardResult {
  /// alphas[t-1][k] = α̂_t^k — the SCALED forward vector, Σ_k α̂_t^k = 1.
  /// The paper's unscaled α_t^k = Pr(u_t = s_k, o_1..o_t) is recovered as
  /// α̂_t^k · ∏_{i≤t} scales[i-1].
  std::vector<linalg::Vector> alphas;
  /// betas[t-1][k] = β̂_t^k — β_t^k / ∏_{i>t} scales[i-1]; β̂_T = 1. With
  /// this pairing Σ_k α̂_t^k β̂_t^k = 1 at every t.
  std::vector<linalg::Vector> betas;
  /// posteriors[t-1][k] = Pr(u_t = s_k | o_1..o_T) (Eq. 12) — exact, the
  /// scaling cancels.
  std::vector<linalg::Vector> posteriors;
  /// scales[t-1] = c_t, the per-step normalizers; Pr(o_1..o_T) = ∏_t c_t.
  std::vector<double> scales;
  /// log Pr(o_1..o_T) = Σ_t log c_t — exact even when the raw likelihood
  /// underflows a double.
  double log_likelihood = 0.0;
  /// Pr(o_1..o_T) = exp(log_likelihood); underflows to 0 on very long
  /// trajectories — prefer log_likelihood there.
  double likelihood = 0.0;
};

/// Runs forward-backward for a time-homogeneous chain. `emissions[t-1]` is
/// the emission column p̃_{o_t} — Pr(o_t | u_t = s_k) per state k — so the
/// caller can use a different emission matrix at every timestamp, matching
/// the paper's Section III-C remark. Returns InvalidArgument on size
/// mismatches or an empty observation sequence, FailedPrecondition only when
/// the observations have genuinely zero probability (some c_t = 0), never
/// from underflow.
Result<ForwardBackwardResult> ForwardBackward(
    const markov::TransitionMatrix& transition, const linalg::Vector& initial,
    const std::vector<linalg::Vector>& emissions);

/// Forward filtering only: returns the sequence of scaled α̂_t (identical to
/// ForwardBackward().alphas). Cheaper than the full pass when betas are not
/// needed.
Result<std::vector<linalg::Vector>> ForwardOnly(
    const markov::TransitionMatrix& transition, const linalg::Vector& initial,
    const std::vector<linalg::Vector>& emissions);

/// The Bayesian posterior update of δ-location set privacy (Eq. 21):
/// p⁺[i] ∝ Pr(o | u = s_i) · p⁻[i]. Returns InvalidArgument on a size
/// mismatch, FailedPrecondition when the evidence has zero probability under
/// the prior.
Result<linalg::Vector> PosteriorUpdate(const linalg::Vector& prior,
                                       const linalg::Vector& emission_column);

}  // namespace priste::hmm

#endif  // PRISTE_HMM_FORWARD_BACKWARD_H_
