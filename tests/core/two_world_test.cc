#include "priste/core/two_world.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <utility>

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
  EXPECT_LT(model.TransitionAt(2).MaxAbsDiff(expected_window), 1e-12);
  EXPECT_LT(model.TransitionAt(3).MaxAbsDiff(expected_window), 1e-12);

  // M1, M4, M5: block diagonal (right matrix of Eq. 22).
  const linalg::Matrix expected_outside{
      {0.1, 0.2, 0.7, 0.0, 0.0, 0.0}, {0.4, 0.1, 0.5, 0.0, 0.0, 0.0},
      {0.0, 0.1, 0.9, 0.0, 0.0, 0.0}, {0.0, 0.0, 0.0, 0.1, 0.2, 0.7},
      {0.0, 0.0, 0.0, 0.4, 0.1, 0.5}, {0.0, 0.0, 0.0, 0.0, 0.1, 0.9}};
  EXPECT_LT(model.TransitionAt(1).MaxAbsDiff(expected_outside), 1e-12);
  EXPECT_LT(model.TransitionAt(4).MaxAbsDiff(expected_outside), 1e-12);
  EXPECT_LT(model.TransitionAt(5).MaxAbsDiff(expected_outside), 1e-12);
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

// A lifted column of random entries; with `equal_halves` the TRUE half is a
// copy of the FALSE half, the shape of the quantifier's post-window β.
linalg::Vector RandomLifted(size_t m, bool equal_halves, Rng& rng) {
  linalg::Vector v(2 * m);
  for (size_t i = 0; i < m; ++i) {
    v[i] = rng.NextDouble();
    v[m + i] = equal_halves ? v[i] : rng.NextDouble();
  }
  return v;
}

TEST(TwoWorldTest, BlockwiseStepKernelsMatchDenseTransitionOracle) {
  // The row and column kernels never build M_t; both are checked here
  // against products with the dense TransitionAt(t), so a mistake the two
  // kernels share cannot cancel out in the cached-vs-cold suites (which run
  // one kernel against the other). Covers the capture (PRESENCE), entry and
  // continuation (PATTERN) forms, windows opening at t = 1..3, and the
  // block-diagonal steps on either side of the window — at small m, where
  // the spans run inline, and at m = 18 and 37, where they dispatch and
  // neither is a multiple of the 4-row block. Columns with bit-equal halves
  // take the block-diagonal step's one-product shortcut.
  Rng rng(17);
  const auto check = [&](size_t m) {
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
          const linalg::Matrix dense = model.TransitionAt(t);
          for (const bool equal_halves : {false, true}) {
            const linalg::Vector v = RandomLifted(m, equal_halves, rng);
            EXPECT_LT(
                model.StepRow(v, t).Minus(linalg::VecMat(v, dense)).MaxAbs(),
                1e-12)
                << "m=" << m << " presence=" << presence << " start=" << start
                << " t=" << t;
            linalg::Vector column(2 * m);
            model.StepColumnInto(v, t, column);
            EXPECT_LT(column.Minus(linalg::MatVec(dense, v)).MaxAbs(), 1e-12)
                << "m=" << m << " presence=" << presence << " start=" << start
                << " t=" << t << " equal_halves=" << equal_halves;
          }
        }
      }
    }
  };
  for (int trial = 0; trial < 4; ++trial) check(3 + rng.NextBelow(6));
  check(18);
  check(37);
}

TEST(TwoWorldTest, StepColumnPairIsBitEqualToTwoSingleSteps) {
  // The pair step streams the base matrix once for both vectors; each output
  // must still be bit-equal to its own StepColumnInto. A window of three
  // steps opening at t = 3 gives, for PRESENCE, the capture form at t = 2..4
  // and, for PATTERN, the entry form at t = 2 and the continuation form at
  // t = 3..4; t = 1 and t = 5..6 are block diagonal. Each step pairs columns
  // with unequal halves, with equal halves, and one of each.
  Rng rng(19);
  for (const size_t m : {5ul, 18ul, 37ul}) {
    const auto chain = testing::RandomTransition(m, rng);
    std::vector<geo::Region> regions;
    for (int i = 0; i < 3; ++i) regions.push_back(testing::RandomRegion(m, rng));
    for (const bool presence : {true, false}) {
      event::EventPtr ev;
      if (presence) {
        ev = std::make_shared<PresenceEvent>(regions, 3);
      } else {
        ev = std::make_shared<PatternEvent>(regions, 3);
      }
      const TwoWorldModel model(chain, ev);
      for (int t = 1; t <= model.event_end() + 1; ++t) {
        for (const auto& [eq1, eq2] : {std::pair{false, false},
                                       std::pair{true, true},
                                       std::pair{true, false},
                                       std::pair{false, true}}) {
          const linalg::Vector v1 = RandomLifted(m, eq1, rng);
          const linalg::Vector v2 = RandomLifted(m, eq2, rng);
          linalg::Vector o1(2 * m), o2(2 * m), s1(2 * m), s2(2 * m);
          model.StepColumnPairInto(v1, v2, t, o1, o2);
          model.StepColumnInto(v1, t, s1);
          model.StepColumnInto(v2, t, s2);
          EXPECT_EQ(o1.as_std(), s1.as_std())
              << "m=" << m << " presence=" << presence << " t=" << t
              << " equal_halves=" << eq1 << "," << eq2;
          EXPECT_EQ(o2.as_std(), s2.as_std())
              << "m=" << m << " presence=" << presence << " t=" << t
              << " equal_halves=" << eq1 << "," << eq2;
        }
      }
    }
  }
}

// Resident set size in MB (Linux /proc/self/statm: pages, then resident
// pages).
double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  double pages = 0.0, resident = 0.0;
  statm >> pages >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// A fixed-region PRESENCE and its model cost the same memory whatever the
// length of the event's window: the event stores its region once and the
// model one indicator. Both events below end at t = 100000, so their models
// keep the same 100000 suffix vectors, one per t ≤ end; only the windows
// differ, 2 steps against 99999. One region copy and one indicator per
// window step made the long window cost about 23 MB more on 16 cells.
TEST(TwoWorldTest, FixedRegionPresenceMemoryDoesNotGrowWithItsWindow) {
  if (ResidentMb() <= 0.0) GTEST_SKIP() << "no /proc/self/statm here";
  Rng rng(17);
  const auto chain = testing::RandomTransition(16, rng);
  const geo::Region region(16, {5, 6});
  const double before = ResidentMb();
  const TwoWorldModel short_window(
      chain, std::make_shared<PresenceEvent>(region, 99999, 100000));
  const double after_short = ResidentMb();
  const TwoWorldModel long_window(
      chain, std::make_shared<PresenceEvent>(region, 2, 100000));
  const double after_long = ResidentMb();
  EXPECT_LT((after_long - after_short) - (after_short - before), 4.0)
      << "short window " << after_short - before << " MB, long window "
      << after_long - after_short << " MB";
  // The step kernels read the one indicator at every window step.
  const linalg::Vector v = testing::RandomProbability(32, rng);
  linalg::Vector column(32);
  for (const int t : {1, 2, 777, 99998, 99999}) {
    long_window.StepColumnInto(v, t, column);
    EXPECT_LT(
        column.Minus(linalg::MatVec(long_window.TransitionAt(t), v)).MaxAbs(),
        1e-12)
        << "t=" << t;
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
