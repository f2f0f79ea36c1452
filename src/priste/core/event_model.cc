#include "priste/core/event_model.h"

#include <algorithm>
#include <vector>

#include "priste/common/check.h"
#include "priste/linalg/kernels.h"

namespace priste::core {

void LiftedEventModel::StepRowInto(const linalg::Vector& v, int t,
                                   linalg::Vector& out) const {
  out = StepRow(v, t);
}

void LiftedEventModel::StepColumnInto(const linalg::Vector& v, int t,
                                      linalg::Vector& out) const {
  out = StepColumn(v, t);
}

void LiftedEventModel::StepColumnPairInto(const linalg::Vector& v1,
                                          const linalg::Vector& v2, int t,
                                          linalg::Vector& o1,
                                          linalg::Vector& o2) const {
  StepColumnInto(v1, t, o1);
  StepColumnInto(v2, t, o2);
}

void LiftedEventModel::ApplyEmissionInPlace(const linalg::Vector& emission,
                                            linalg::Vector& v) const {
  v = ApplyEmission(emission, v);
}

void LiftedEventModel::StepRowSpanInto(const double* v, int t,
                                       double* out) const {
  linalg::Vector vin(std::vector<double>(v, v + lifted_size()));
  linalg::Vector vout(lifted_size());
  StepRowInto(vin, t, vout);
  std::copy(vout.data(), vout.data() + lifted_size(), out);
}

void LiftedEventModel::ApplyEmissionSpanInPlace(const linalg::Vector& emission,
                                                double* v) const {
  const size_t m = num_states();
  PRISTE_CHECK(emission.size() == m);
  PRISTE_CHECK(m > 0 && lifted_size() % m == 0);
  const size_t k = lifted_size() / m;
  for (size_t q = 0; q < k; ++q) {
    linalg::kernels::HadamardInPlace(emission.data(), v + q * m, m);
  }
}

void LiftedEventModel::InitializeDerived(linalg::Vector accepting_mask) {
  PRISTE_CHECK(accepting_mask.size() == lifted_size());
  accepting_mask_ = std::move(accepting_mask);

  const int end = event_end();
  PRISTE_CHECK(end >= 1);
  // suffix_[t-1] = M_t · suffix_[t]: each slot doubles as the target buffer,
  // so the whole chain is one allocation per stored vector and no temporaries.
  suffix_.assign(static_cast<size_t>(end), linalg::Vector());
  suffix_[static_cast<size_t>(end - 1)] = accepting_mask_;
  for (int t = end - 1; t >= 1; --t) {
    suffix_[static_cast<size_t>(t - 1)] = linalg::Vector(lifted_size());
    StepColumnInto(suffix_[static_cast<size_t>(t)], t,
                   suffix_[static_cast<size_t>(t - 1)]);
  }
  a_bar_ = ContractColumn(suffix_[0]);
}

const linalg::Vector& LiftedEventModel::SuffixTrue(int t) const {
  PRISTE_CHECK(t >= 1 && t <= event_end());
  return suffix_[static_cast<size_t>(t - 1)];
}

}  // namespace priste::core
