#include "priste/hmm/forward_backward.h"

#include <cmath>

namespace priste::hmm {
namespace {

// Scaled forward pass shared by ForwardBackward and ForwardOnly: validates
// the inputs, then fills `alphas` with α̂_t (each summing to 1) and `scales`
// with the per-step normalizers c_t. Allocation-free per step: every vector
// is written in place via the chain's fused kernels. Fails only on a genuine
// zero.
Result<void> ScaledForward(const markov::TransitionMatrix& transition,
                           const linalg::Vector& initial,
                           const std::vector<linalg::Vector>& emissions,
                           std::vector<linalg::Vector>& alphas,
                           std::vector<double>& scales) {
  const size_t m = transition.num_states();
  if (initial.size() != m) {
    return err::InvalidArgument("initial distribution size != num_states");
  }
  if (emissions.empty()) {
    return err::InvalidArgument("need at least one observation");
  }
  for (const auto& e : emissions) {
    if (e.size() != m) {
      return err::InvalidArgument("emission column size != num_states");
    }
  }
  const size_t T = emissions.size();
  alphas.assign(T, linalg::Vector());
  scales.assign(T, 0.0);

  // α_1 = π ∘ p̃_{o_1}; α_t = (α_{t-1} M) ∘ p̃_{o_t}  (Eq. 10), rescaled to
  // a probability vector after every step.
  for (size_t t = 0; t < T; ++t) {
    alphas[t] = linalg::Vector(m);
    if (t == 0) {
      for (size_t i = 0; i < m; ++i) alphas[0][i] = initial[i] * emissions[0][i];
    } else {
      transition.PropagateHadamardInto(alphas[t - 1], emissions[t], alphas[t]);
    }
    const double c = alphas[t].Sum();
    if (c <= 0.0) {
      return err::FailedPrecondition(
          "observations have zero probability under the model");
    }
    scales[t] = c;
    alphas[t].ScaleInPlace(1.0 / c);
  }
  return {};
}

}  // namespace

Result<ForwardBackwardResult> ForwardBackward(
    const markov::TransitionMatrix& transition, const linalg::Vector& initial,
    const std::vector<linalg::Vector>& emissions) {
  ForwardBackwardResult out;
  PRISTE_TRY_VOID(
      ScaledForward(transition, initial, emissions, out.alphas, out.scales));
  const size_t m = transition.num_states();
  const size_t T = emissions.size();
  out.log_likelihood = 0.0;
  for (const double c : out.scales) out.log_likelihood += std::log(c);
  out.likelihood = std::exp(out.log_likelihood);

  // β_T = 1; β_t = M (p̃_{o_{t+1}} ∘ β_{t+1})  (Eq. 11), divided by c_{t+1}
  // so that β̂_t pairs with α̂_t: Σ_k α̂_t^k β̂_t^k = 1 exactly.
  out.betas.assign(T, linalg::Vector());
  out.betas[T - 1] = linalg::Vector::Ones(m);
  for (size_t t = T - 1; t-- > 0;) {
    out.betas[t] = linalg::Vector(m);
    transition.BackwardHadamardInto(emissions[t + 1], out.betas[t + 1],
                                    out.betas[t]);
    out.betas[t].ScaleInPlace(1.0 / out.scales[t + 1]);
  }

  // Posterior (Eq. 12): Pr(u_t = s_k | o_1..o_T) ∝ α̂_t^k β̂_t^k — the scale
  // products cancel in the normalization.
  out.posteriors.reserve(T);
  for (size_t t = 0; t < T; ++t) {
    linalg::Vector post = out.alphas[t].Hadamard(out.betas[t]);
    const double norm = post.Sum();
    if (norm <= 0.0) {
      return err::FailedPrecondition(
          "observations have zero probability under the model");
    }
    post.ScaleInPlace(1.0 / norm);
    out.posteriors.push_back(std::move(post));
  }
  return out;
}

Result<std::vector<linalg::Vector>> ForwardOnly(
    const markov::TransitionMatrix& transition, const linalg::Vector& initial,
    const std::vector<linalg::Vector>& emissions) {
  std::vector<linalg::Vector> alphas;
  std::vector<double> scales;
  PRISTE_TRY_VOID(
      ScaledForward(transition, initial, emissions, alphas, scales));
  return alphas;
}

Result<linalg::Vector> PosteriorUpdate(const linalg::Vector& prior,
                                       const linalg::Vector& emission_column) {
  if (prior.size() != emission_column.size()) {
    return err::InvalidArgument("prior/emission size mismatch");
  }
  linalg::Vector post = prior.Hadamard(emission_column);
  const double norm = post.Sum();
  if (norm <= 0.0) {
    return err::FailedPrecondition("observation impossible under prior");
  }
  post.ScaleInPlace(1.0 / norm);
  return post;
}

}  // namespace priste::hmm
