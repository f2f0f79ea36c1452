#include "priste/core/two_world.h"

#include <gtest/gtest.h>

#include "priste/event/pattern.h"
#include "priste/event/presence.h"
#include "priste/linalg/ops.h"
#include "testing/test_util.h"

namespace priste::core {
namespace {

using event::PatternEvent;
using event::PresenceEvent;

markov::TransitionMatrix PaperExampleChain() {
  // Equation (2).
  auto m = markov::TransitionMatrix::Create(linalg::Matrix{
      {0.1, 0.2, 0.7}, {0.4, 0.1, 0.5}, {0.0, 0.1, 0.9}});
  PRISTE_CHECK(m.ok());
  return std::move(m).value();
}

TEST(TwoWorldTest, PresenceMatricesMatchAppendixC) {
  // Example C.1: PRESENCE in {s1, s2} at t = 3..4 over the Eq. (2) chain.
  const auto ev = std::make_shared<PresenceEvent>(geo::Region(3, {0, 1}), 3, 4);
  const TwoWorldModel model(PaperExampleChain(), ev);

  // M2, M3: the capture form (left matrix of Eq. 22).
  const linalg::Matrix expected_window{
      {0.0, 0.0, 0.7, 0.1, 0.2, 0.0}, {0.0, 0.0, 0.5, 0.4, 0.1, 0.0},
      {0.0, 0.0, 0.9, 0.0, 0.1, 0.0}, {0.0, 0.0, 0.0, 0.1, 0.2, 0.7},
      {0.0, 0.0, 0.0, 0.4, 0.1, 0.5}, {0.0, 0.0, 0.0, 0.0, 0.1, 0.9}};
  EXPECT_LT(model.TransitionAt(2).ToDense().MaxAbsDiff(expected_window), 1e-12);
  EXPECT_LT(model.TransitionAt(3).ToDense().MaxAbsDiff(expected_window), 1e-12);

  // M1, M4, M5: block diagonal (right matrix of Eq. 22).
  const linalg::Matrix expected_outside{
      {0.1, 0.2, 0.7, 0.0, 0.0, 0.0}, {0.4, 0.1, 0.5, 0.0, 0.0, 0.0},
      {0.0, 0.1, 0.9, 0.0, 0.0, 0.0}, {0.0, 0.0, 0.0, 0.1, 0.2, 0.7},
      {0.0, 0.0, 0.0, 0.4, 0.1, 0.5}, {0.0, 0.0, 0.0, 0.0, 0.1, 0.9}};
  EXPECT_LT(model.TransitionAt(1).ToDense().MaxAbsDiff(expected_outside), 1e-12);
  EXPECT_LT(model.TransitionAt(4).ToDense().MaxAbsDiff(expected_outside), 1e-12);
  EXPECT_LT(model.TransitionAt(5).ToDense().MaxAbsDiff(expected_outside), 1e-12);
}

TEST(TwoWorldTest, LiftedMatricesAreRowStochastic) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t m = 4;
    const auto chain = testing::RandomTransition(m, rng);
    const int start = 1 + static_cast<int>(rng.NextBelow(3));
    const int len = 1 + static_cast<int>(rng.NextBelow(3));
    std::vector<geo::Region> regions;
    for (int i = 0; i < len; ++i) regions.push_back(testing::RandomRegion(m, rng));

    for (const bool presence : {true, false}) {
      event::EventPtr ev;
      if (presence) {
        ev = std::make_shared<PresenceEvent>(regions, start);
      } else {
        ev = std::make_shared<PatternEvent>(regions, start);
      }
      const TwoWorldModel model(chain, ev);
      for (int t = 1; t <= start + len + 2; ++t) {
        EXPECT_TRUE(model.TransitionAt(t).IsRowStochastic(1e-9))
            << "presence=" << presence << " t=" << t;
      }
    }
  }
}

TEST(TwoWorldTest, LiftInitialDefaultPutsMassInFalseWorld) {
  Rng rng(5);
  const auto chain = testing::RandomTransition(3, rng);
  const auto ev = std::make_shared<PresenceEvent>(geo::Region(3, {0}), 2, 3);
  const TwoWorldModel model(chain, ev);
  const linalg::Vector pi = testing::RandomProbability(3, rng);
  const linalg::Vector lifted = model.LiftInitial(pi);
  ASSERT_EQ(lifted.size(), 6u);
  EXPECT_DOUBLE_EQ(lifted[0], pi[0]);
  EXPECT_DOUBLE_EQ(lifted[3], 0.0);
  EXPECT_NEAR(lifted.Sum(), 1.0, 1e-12);
}

TEST(TwoWorldTest, LiftInitialSplitsWorldWhenEventStartsAtOne) {
  Rng rng(7);
  const auto chain = testing::RandomTransition(3, rng);
  const auto ev = std::make_shared<PresenceEvent>(geo::Region(3, {1}), 1, 2);
  const TwoWorldModel model(chain, ev);
  const linalg::Vector pi{0.2, 0.5, 0.3};
  const linalg::Vector lifted = model.LiftInitial(pi);
  EXPECT_DOUBLE_EQ(lifted[0], 0.2);   // s1 not in region → FALSE world
  EXPECT_DOUBLE_EQ(lifted[1], 0.0);   // s2 in region → moved
  EXPECT_DOUBLE_EQ(lifted[4], 0.5);   // ... to TRUE world
  EXPECT_DOUBLE_EQ(lifted[5], 0.0);
  EXPECT_NEAR(lifted.Sum(), 1.0, 1e-12);
}

TEST(TwoWorldTest, ContractColumnIsAdjointOfLift) {
  Rng rng(9);
  for (const int start : {1, 2}) {
    const size_t m = 4;
    const auto chain = testing::RandomTransition(m, rng);
    const auto ev =
        std::make_shared<PresenceEvent>(testing::RandomRegion(m, rng), start, start + 1);
    const TwoWorldModel model(chain, ev);
    for (int trial = 0; trial < 5; ++trial) {
      const linalg::Vector pi = testing::RandomProbability(m, rng);
      linalg::Vector col(2 * m);
      for (size_t i = 0; i < 2 * m; ++i) col[i] = rng.Uniform(-1.0, 1.0);
      const double direct = model.LiftInitial(pi).Dot(col);
      const double contracted = pi.Dot(model.ContractColumn(col));
      EXPECT_NEAR(direct, contracted, 1e-12);
    }
  }
}

TEST(TwoWorldTest, SuffixVectorsAreEventProbabilities) {
  // SuffixTrue(t)[lifted state] must lie in [0, 1]: it is a probability of
  // ending in the TRUE world.
  Rng rng(11);
  const size_t m = 3;
  const auto chain = testing::RandomTransition(m, rng);
  const auto ev = std::make_shared<PatternEvent>(
      std::vector<geo::Region>{testing::RandomRegion(m, rng),
                               testing::RandomRegion(m, rng)},
      2);
  const TwoWorldModel model(chain, ev);
  for (int t = 1; t <= model.event_end(); ++t) {
    EXPECT_TRUE(model.SuffixTrue(t).AllInRange(0.0, 1.0)) << "t=" << t;
  }
  EXPECT_TRUE(model.PriorContraction().AllInRange(0.0, 1.0));
}

TEST(TwoWorldTest, BlockwiseStepKernelsMatchDenseTransitionOracle) {
  // StepRow/StepColumn never build M_t; both are checked here against
  // products with the dense TransitionAt(t) blocks, so a mistake the two
  // kernels share cannot cancel out in the cached-vs-cold suites (which run
  // one kernel against the other). Covers the capture (PRESENCE), entry and
  // continuation (PATTERN) forms, windows opening at t = 1..3, and the
  // block-diagonal steps on either side of the window.
  Rng rng(17);
  for (int trial = 0; trial < 4; ++trial) {
    const size_t m = 3 + rng.NextBelow(6);
    const auto chain = testing::RandomTransition(m, rng);
    for (int start = 1; start <= 3; ++start) {
      const int len = 1 + static_cast<int>(rng.NextBelow(3));
      std::vector<geo::Region> regions;
      for (int i = 0; i < len; ++i) {
        regions.push_back(testing::RandomRegion(m, rng));
      }
      for (const bool presence : {true, false}) {
        event::EventPtr ev;
        if (presence) {
          ev = std::make_shared<PresenceEvent>(regions, start);
        } else {
          ev = std::make_shared<PatternEvent>(regions, start);
        }
        const TwoWorldModel model(chain, ev);
        for (int t = 1; t <= model.event_end() + 1; ++t) {
          const linalg::Matrix dense = model.TransitionAt(t).ToDense();
          linalg::Vector v(2 * m);
          for (size_t i = 0; i < v.size(); ++i) v[i] = rng.NextDouble();
          EXPECT_LT(model.StepRow(v, t).Minus(linalg::VecMat(v, dense)).MaxAbs(),
                    1e-12)
              << "presence=" << presence << " start=" << start << " t=" << t;
          EXPECT_LT(
              model.StepColumn(v, t).Minus(linalg::MatVec(dense, v)).MaxAbs(),
              1e-12)
              << "presence=" << presence << " start=" << start << " t=" << t;
        }
      }
    }
  }
}

TEST(TwoWorldTest, RejectsMismatchedStateCounts) {
  Rng rng(13);
  const auto chain = testing::RandomTransition(3, rng);
  const auto ev = std::make_shared<PresenceEvent>(geo::Region(4, {0}), 2, 3);
  EXPECT_DEATH(TwoWorldModel(chain, ev), "state count");
}

}  // namespace
}  // namespace priste::core
