#include "priste/markov/schedule.h"

#include "priste/common/check.h"

namespace priste::markov {
namespace {

Result<void> ValidateMatrices(const std::vector<TransitionMatrix>& matrices) {
  if (matrices.empty()) {
    return err::InvalidArgument("schedule needs at least one matrix");
  }
  const size_t m = matrices.front().num_states();
  for (const auto& matrix : matrices) {
    if (matrix.num_states() != m) {
      return err::InvalidArgument("schedule matrices disagree on state count");
    }
  }
  return {};
}

}  // namespace

TransitionSchedule TransitionSchedule::Homogeneous(TransitionMatrix m) {
  return TransitionSchedule(Mode::kCyclic, {std::move(m)});
}

Result<TransitionSchedule> TransitionSchedule::Cyclic(
    std::vector<TransitionMatrix> matrices) {
  PRISTE_TRY_VOID(ValidateMatrices(matrices));
  return TransitionSchedule(Mode::kCyclic, std::move(matrices));
}

Result<TransitionSchedule> TransitionSchedule::PerStep(
    std::vector<TransitionMatrix> matrices) {
  PRISTE_TRY_VOID(ValidateMatrices(matrices));
  return TransitionSchedule(Mode::kPerStepThenRepeat, std::move(matrices));
}

int TransitionSchedule::IndexAtStep(int t) const {
  PRISTE_CHECK(t >= 1);
  const size_t n = matrices_.size();
  if (mode_ == Mode::kCyclic) {
    return static_cast<int>(static_cast<size_t>(t - 1) % n);
  }
  return static_cast<int>(std::min(static_cast<size_t>(t - 1), n - 1));
}

linalg::Vector TransitionSchedule::MarginalAt(const linalg::Vector& initial,
                                              int t) const {
  PRISTE_CHECK(t >= 1);
  PRISTE_CHECK(initial.size() == num_states());
  linalg::Vector p = initial;
  for (int step = 1; step < t; ++step) {
    p = AtStep(step).Propagate(p);
  }
  return p;
}

}  // namespace priste::markov
