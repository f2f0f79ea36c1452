#include "priste/core/event_model.h"

#include <utility>
#include <vector>

#include "priste/common/check.h"
#include "priste/linalg/kernels.h"

namespace priste::core {

linalg::Vector LiftedEventModel::StepRow(const linalg::Vector& v,
                                         int t) const {
  linalg::Vector out(lifted_size());
  StepRowInto(v, t, out);
  return out;
}

void LiftedEventModel::StepRowInto(const linalg::Vector& v, int t,
                                   linalg::Vector& out) const {
  PRISTE_CHECK(v.size() == lifted_size() && out.size() == lifted_size());
  PRISTE_DCHECK(v.data() != out.data());
  StepRowSpanInto(v.data(), t, out.data());
}

void LiftedEventModel::StepColumnInto(const linalg::Vector& v, int t,
                                      linalg::Vector& out) const {
  PRISTE_CHECK(v.size() == lifted_size() && out.size() == lifted_size());
  PRISTE_DCHECK(v.data() != out.data());
  const double* in = v.data();
  double* op = out.data();
  StepColumnSpansInto(&in, &op, 1, t);
}

void LiftedEventModel::StepColumnPairInto(const linalg::Vector& v1,
                                          const linalg::Vector& v2, int t,
                                          linalg::Vector& o1,
                                          linalg::Vector& o2) const {
  const size_t n = lifted_size();
  PRISTE_CHECK(v1.size() == n && v2.size() == n && o1.size() == n &&
               o2.size() == n);
  PRISTE_DCHECK(o1.data() != v1.data() && o1.data() != v2.data() &&
                o2.data() != v1.data() && o2.data() != v2.data() &&
                o1.data() != o2.data());
  const double* in[2] = {v1.data(), v2.data()};
  double* out[2] = {o1.data(), o2.data()};
  StepColumnSpansInto(in, out, 2, t);
}

void LiftedEventModel::ApplyEmissionInPlace(const linalg::Vector& emission,
                                            linalg::Vector& v) const {
  PRISTE_CHECK(v.size() == lifted_size());
  ApplyEmissionSpanInPlace(emission, v.data());
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
