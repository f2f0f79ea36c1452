#ifndef PRISTE_CORE_PRIOR_H_
#define PRISTE_CORE_PRIOR_H_

#include "priste/core/event_model.h"
#include "priste/linalg/vector.h"

namespace priste::core {

/// Lemma III.1: Pr(EVENT) = [π, 0] ∏_{i=1}^{end−1} M_i [0,1]ᵀ, evaluated in
/// O(end · m²) via the model's precomputed suffix (or equivalently as
/// π · ā with ā the prior contraction). Linear in the number of event
/// predicates — the headline complexity result the naive baseline
/// (naive_baseline.h) is compared against in Fig. 14.
double EventPrior(const LiftedEventModel& model, const linalg::Vector& pi);

}  // namespace priste::core

#endif  // PRISTE_CORE_PRIOR_H_
