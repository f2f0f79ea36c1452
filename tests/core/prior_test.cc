#include "priste/core/prior.h"

#include "priste/core/two_world.h"

#include <memory>

#include <gtest/gtest.h>

#include "priste/event/enumeration.h"
#include "priste/event/pattern.h"
#include "priste/event/presence.h"
#include "priste/markov/markov_chain.h"
#include "testing/test_util.h"

namespace priste::core {
namespace {

using event::PatternEvent;
using event::PresenceEvent;

markov::TransitionMatrix PaperExampleChain() {
  auto m = markov::TransitionMatrix::Create(linalg::Matrix{
      {0.1, 0.2, 0.7}, {0.4, 0.1, 0.5}, {0.0, 0.1, 0.9}});
  PRISTE_CHECK(m.ok());
  return std::move(m).value();
}

TEST(PriorTest, AppendixCExactValues) {
  // Example C.1: Pr(PRESENCE) = π·[0.28, 0.298, 0.226]ᵀ.
  const auto ev = std::make_shared<PresenceEvent>(geo::Region(3, {0, 1}), 3, 4);
  const TwoWorldModel model(PaperExampleChain(), ev);
  const linalg::Vector a_bar = model.PriorContraction();
  EXPECT_NEAR(a_bar[0], 0.28, 1e-12);
  EXPECT_NEAR(a_bar[1], 0.298, 1e-12);
  EXPECT_NEAR(a_bar[2], 0.226, 1e-12);

  const linalg::Vector pi{0.3, 0.3, 0.4};
  EXPECT_NEAR(EventPrior(model, pi), 0.3 * 0.28 + 0.3 * 0.298 + 0.4 * 0.226, 1e-12);
}

// Property suite: the two-world prior equals brute-force enumeration over
// all m^T trajectories for random chains and random events — the Lemma III.1
// correctness invariant (DESIGN.md §5.1).
struct PriorCase {
  int seed;
  bool presence;
  int start;
  int window;
};

class PriorEnumerationTest : public ::testing::TestWithParam<PriorCase> {};

TEST_P(PriorEnumerationTest, MatchesEnumeration) {
  const PriorCase& c = GetParam();
  Rng rng(4000 + c.seed);
  const size_t m = 3;
  const auto chain = testing::RandomTransition(m, rng);
  const linalg::Vector pi = testing::RandomProbability(m, rng);
  std::vector<geo::Region> regions;
  for (int i = 0; i < c.window; ++i) regions.push_back(testing::RandomRegion(m, rng));

  event::EventPtr ev;
  if (c.presence) {
    ev = std::make_shared<PresenceEvent>(regions, c.start);
  } else {
    ev = std::make_shared<PatternEvent>(regions, c.start);
  }
  const TwoWorldModel model(chain, ev);
  const double fast = EventPrior(model, pi);

  const markov::MarkovChain mc(chain, pi);
  const double oracle = event::EnumeratePrior(mc, *ev->ToBooleanExpr(), ev->end());
  EXPECT_NEAR(fast, oracle, 1e-12)
      << (c.presence ? "PRESENCE" : "PATTERN") << " start=" << c.start
      << " window=" << c.window;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PriorEnumerationTest,
    ::testing::Values(PriorCase{0, true, 1, 1}, PriorCase{1, true, 1, 2},
                      PriorCase{2, true, 1, 3}, PriorCase{3, true, 2, 1},
                      PriorCase{4, true, 2, 2}, PriorCase{5, true, 3, 3},
                      PriorCase{6, true, 4, 2}, PriorCase{7, false, 1, 1},
                      PriorCase{8, false, 1, 2}, PriorCase{9, false, 1, 3},
                      PriorCase{10, false, 2, 1}, PriorCase{11, false, 2, 2},
                      PriorCase{12, false, 3, 3}, PriorCase{13, false, 4, 2},
                      PriorCase{14, true, 2, 4}, PriorCase{15, false, 2, 4}));

TEST(PriorTest, FullMapPresenceIsCertain) {
  Rng rng(17);
  const size_t m = 3;
  const auto chain = testing::RandomTransition(m, rng);
  geo::Region all(m);
  for (size_t s = 0; s < m; ++s) all.Add(static_cast<int>(s));
  const auto ev = std::make_shared<PresenceEvent>(all, 2, 3);
  const TwoWorldModel model(chain, ev);
  EXPECT_NEAR(EventPrior(model, testing::RandomProbability(m, rng)), 1.0, 1e-12);
}

TEST(PriorTest, LiftedDistributionConservesMass) {
  Rng rng(19);
  const size_t m = 4;
  const auto chain = testing::RandomTransition(m, rng);
  const auto ev = std::make_shared<PresenceEvent>(testing::RandomRegion(m, rng), 2, 4);
  const TwoWorldModel model(chain, ev);
  const linalg::Vector pi = testing::RandomProbability(m, rng);
  // [π, 0] ∏_{i=1}^{t−1} M_i, one step at a time.
  linalg::Vector lifted = model.LiftInitial(pi);
  for (int t = 1; t <= 6; ++t) {
    if (t > 1) lifted = model.StepRow(lifted, t - 1);
    EXPECT_NEAR(lifted.Sum(), 1.0, 1e-10) << "t=" << t;
    EXPECT_TRUE(lifted.AllInRange(0.0, 1.0));
  }
}

TEST(PriorTest, PresencePriorIsMonotoneInWindow) {
  // Extending a PRESENCE window can only increase the event probability.
  Rng rng(21);
  const size_t m = 3;
  const auto chain = testing::RandomTransition(m, rng);
  const linalg::Vector pi = testing::RandomProbability(m, rng);
  const geo::Region region = testing::RandomRegion(m, rng);
  double previous = 0.0;
  for (int end = 2; end <= 5; ++end) {
    const auto ev = std::make_shared<PresenceEvent>(region, 2, end);
    const TwoWorldModel model(chain, ev);
    const double prior = EventPrior(model, pi);
    EXPECT_GE(prior, previous - 1e-12) << "end=" << end;
    previous = prior;
  }
}

TEST(PriorTest, PatternPriorIsAntitoneInWindow) {
  // Extending a PATTERN window (more constraints) can only decrease it.
  Rng rng(23);
  const size_t m = 3;
  const auto chain = testing::RandomTransition(m, rng);
  const linalg::Vector pi = testing::RandomProbability(m, rng);
  const geo::Region region = testing::RandomRegion(m, rng);
  double previous = 1.0;
  for (int end = 2; end <= 5; ++end) {
    const auto ev = std::make_shared<PatternEvent>(region, 2, end);
    const TwoWorldModel model(chain, ev);
    const double prior = EventPrior(model, pi);
    EXPECT_LE(prior, previous + 1e-12) << "end=" << end;
    previous = prior;
  }
}

}  // namespace
}  // namespace priste::core
