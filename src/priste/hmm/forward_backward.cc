#include "priste/hmm/forward_backward.h"

#include <limits>

namespace priste::hmm {

Result<linalg::Vector> PosteriorUpdate(const linalg::Vector& prior,
                                       const linalg::Vector& emission_column) {
  if (prior.size() != emission_column.size()) {
    return err::InvalidArgument("prior/emission size mismatch");
  }
  // AllInRange refuses NaN, and the upper bound refuses +∞.
  constexpr double kMax = std::numeric_limits<double>::max();
  if (!prior.AllInRange(0.0, kMax, 0.0) ||
      !emission_column.AllInRange(0.0, kMax, 0.0)) {
    return err::InvalidArgument("prior and evidence need finite entries >= 0");
  }
  linalg::Vector post = prior.Hadamard(emission_column);
  const double norm = post.Sum();
  if (!(norm > 0.0)) {
    return err::FailedPrecondition("observation impossible under prior");
  }
  post.ScaleInPlace(1.0 / norm);
  return post;
}

}  // namespace priste::hmm
