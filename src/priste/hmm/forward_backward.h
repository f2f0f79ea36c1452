#ifndef PRISTE_HMM_FORWARD_BACKWARD_H_
#define PRISTE_HMM_FORWARD_BACKWARD_H_

#include "priste/common/status.h"
#include "priste/linalg/vector.h"

namespace priste::hmm {

/// The Bayesian posterior update of δ-location set privacy (Eq. 21):
/// p⁺[i] ∝ Pr(o | u = s_i) · p⁻[i]. Returns InvalidArgument on a size
/// mismatch or an entry of either vector that is negative or not finite,
/// FailedPrecondition when the evidence has zero probability under the
/// prior. Accepting neither formats nor allocates beyond the result.
Result<linalg::Vector> PosteriorUpdate(const linalg::Vector& prior,
                                       const linalg::Vector& emission_column);

}  // namespace priste::hmm

#endif  // PRISTE_HMM_FORWARD_BACKWARD_H_
