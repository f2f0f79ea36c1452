#include "priste/core/prior.h"

namespace priste::core {

double EventPrior(const LiftedEventModel& model, const linalg::Vector& pi) {
  return pi.Dot(model.PriorContraction());
}

}  // namespace priste::core
