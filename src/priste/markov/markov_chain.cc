#include "priste/markov/markov_chain.h"

#include <cmath>

#include "priste/common/check.h"

namespace priste::markov {

MarkovChain::MarkovChain(TransitionMatrix transition, linalg::Vector initial)
    : transition_(std::move(transition)), initial_(std::move(initial)) {
  PRISTE_CHECK(initial_.size() == transition_.num_states());
  PRISTE_CHECK_MSG(std::fabs(initial_.Sum() - 1.0) < 1e-6,
                   "initial distribution must sum to 1");
  PRISTE_CHECK_MSG(initial_.AllInRange(0.0, 1.0), "initial distribution out of range");
}

std::vector<int> MarkovChain::Sample(int length, Rng& rng) const {
  PRISTE_CHECK(length >= 1);
  std::vector<int> out;
  out.reserve(static_cast<size_t>(length));
  const int start = rng.SampleDiscrete(initial_.as_std());
  out.push_back(start);
  for (int t = 1; t < length; ++t) {
    const int prev = out.back();
    out.push_back(rng.SampleDiscrete(transition_.RowDistribution(prev).as_std()));
  }
  return out;
}

linalg::Vector MarkovChain::MarginalAt(int t) const {
  PRISTE_CHECK(t >= 1);
  return transition_.PropagateSteps(initial_, t - 1);
}

double MarkovChain::TrajectoryProbability(const std::vector<int>& trajectory) const {
  PRISTE_CHECK(!trajectory.empty());
  double p = initial_[static_cast<size_t>(trajectory[0])];
  for (size_t i = 1; i < trajectory.size(); ++i) {
    p *= transition_(static_cast<size_t>(trajectory[i - 1]),
                     static_cast<size_t>(trajectory[i]));
  }
  return p;
}

}  // namespace priste::markov
