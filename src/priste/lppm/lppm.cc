#include "priste/lppm/lppm.h"

#include <cmath>

#include "priste/common/thread_annotations.h"

namespace priste::lppm {

PRISTE_NO_ABORT
Result<void> ValidateBudget(double budget) {
  if (!(budget >= 0.0)) {  // `>=` also refuses NaN
    return err::InvalidArgument("mechanism budget must be >= 0");
  }
  if (!std::isfinite(budget)) {
    return err::InvalidArgument("mechanism budget must be finite");
  }
  return {};
}

int Lppm::Perturb(int true_cell, Rng& rng) const {
  PRISTE_CHECK(true_cell >= 0 && static_cast<size_t>(true_cell) < num_states());
  return rng.SampleDiscrete(emission().OutputDistribution(true_cell).as_std());
}

linalg::Vector Lppm::EmissionColumn(int o) const {
  return emission().EmissionColumn(o);
}

}  // namespace priste::lppm
