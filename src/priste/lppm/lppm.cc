#include "priste/lppm/lppm.h"

namespace priste::lppm {

int Lppm::Perturb(int true_cell, Rng& rng) const {
  PRISTE_CHECK(true_cell >= 0 && static_cast<size_t>(true_cell) < num_states());
  return rng.SampleDiscrete(emission().OutputDistribution(true_cell).as_std());
}

linalg::Vector Lppm::EmissionColumn(int o) const {
  return emission().EmissionColumn(o);
}

}  // namespace priste::lppm
