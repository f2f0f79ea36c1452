#include "priste/event/automaton.h"

#include <gtest/gtest.h>

#include "priste/event/enumeration.h"
#include "priste/event/pattern.h"
#include "priste/event/presence.h"
#include "testing/test_util.h"

namespace priste::event {
namespace {

TEST(EventAutomatonTest, SinglePredicate) {
  const auto expr = BoolExpr::Pred(2, 1);
  const auto automaton = EventAutomaton::Compile(*expr, 3);
  ASSERT_TRUE(automaton.ok());
  EXPECT_EQ(automaton->start(), 2);
  EXPECT_EQ(automaton->end(), 2);
  EXPECT_TRUE(automaton->Accepts(geo::Trajectory({0, 1})));
  EXPECT_FALSE(automaton->Accepts(geo::Trajectory({1, 0})));
}

TEST(EventAutomatonTest, RejectsPredicateFreeExpressions) {
  EXPECT_FALSE(EventAutomaton::Compile(*BoolExpr::Constant(true), 3).ok());
  EXPECT_FALSE(EventAutomaton::Compile(*BoolExpr::Pred(1, 0), 0).ok());
}

TEST(EventAutomatonTest, StateCapIsEnforced) {
  // An expression rich enough to blow a cap of 2 states.
  const auto expr = BoolExpr::Or(BoolExpr::Pred(1, 0),
                                 BoolExpr::And(BoolExpr::Pred(2, 1),
                                               BoolExpr::Pred(3, 2)));
  const auto automaton = EventAutomaton::Compile(*expr, 3, /*max_states=*/2);
  ASSERT_FALSE(automaton.ok());
  EXPECT_EQ(automaton.error().code, StatusCode::kResourceExhausted);
}

TEST(EventAutomatonTest, PresenceAutomatonIsSmall) {
  // PRESENCE over a window of W timestamps needs O(W) residual states:
  // the shrinking OR plus the TRUE sink (plus FALSE at the end).
  const PresenceEvent ev(geo::Region(6, {0, 1, 2}), 2, 5);
  const auto automaton = EventAutomaton::Compile(*ev.ToBooleanExpr(), 6);
  ASSERT_TRUE(automaton.ok());
  EXPECT_LE(automaton->num_automaton_states(), 4 + 2);
}

TEST(EventAutomatonTest, MatchesPresenceSemantics) {
  const PresenceEvent ev(geo::Region(3, {0, 1}), 2, 3);
  const auto automaton = EventAutomaton::Compile(*ev.ToBooleanExpr(), 3);
  ASSERT_TRUE(automaton.ok());
  ForEachTrajectory(3, 3, [&](const geo::Trajectory& traj) {
    EXPECT_EQ(automaton->Accepts(traj), ev.Holds(traj)) << traj.ToString();
  });
}

TEST(EventAutomatonTest, MatchesPatternSemantics) {
  const PatternEvent ev({geo::Region(3, {0, 1}), geo::Region(3, {1, 2})}, 2);
  const auto automaton = EventAutomaton::Compile(*ev.ToBooleanExpr(), 3);
  ASSERT_TRUE(automaton.ok());
  ForEachTrajectory(3, 3, [&](const geo::Trajectory& traj) {
    EXPECT_EQ(automaton->Accepts(traj), ev.Holds(traj)) << traj.ToString();
  });
}

TEST(EventAutomatonTest, AtLeastTwiceEventBeyondPresencePattern) {
  // "Visited state 0 at at least two of timestamps {1, 2, 3}" — not
  // expressible as a single PRESENCE or PATTERN.
  const auto p1 = BoolExpr::Pred(1, 0);
  const auto p2 = BoolExpr::Pred(2, 0);
  const auto p3 = BoolExpr::Pred(3, 0);
  const auto expr = BoolExpr::OrAll({BoolExpr::And(p1, p2), BoolExpr::And(p1, p3),
                                     BoolExpr::And(p2, p3)});
  const auto automaton = EventAutomaton::Compile(*expr, 2);
  ASSERT_TRUE(automaton.ok());
  ForEachTrajectory(2, 3, [&](const geo::Trajectory& traj) {
    int visits = 0;
    for (int t = 1; t <= 3; ++t) visits += traj.At(t) == 0 ? 1 : 0;
    EXPECT_EQ(automaton->Accepts(traj), visits >= 2) << traj.ToString();
  });
}

TEST(EventAutomatonTest, NegatedEventsWork) {
  // "Was at 0 at time 1 but NOT at 1 at time 2."
  const auto expr =
      BoolExpr::And(BoolExpr::Pred(1, 0), BoolExpr::Not(BoolExpr::Pred(2, 1)));
  const auto automaton = EventAutomaton::Compile(*expr, 3);
  ASSERT_TRUE(automaton.ok());
  ForEachTrajectory(3, 2, [&](const geo::Trajectory& traj) {
    EXPECT_EQ(automaton->Accepts(traj), expr->Evaluate(traj)) << traj.ToString();
  });
}

// Property: the compiled automaton agrees with direct evaluation on every
// trajectory, for random expression trees.
class AutomatonPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AutomatonPropertyTest, AcceptsMatchesEvaluate) {
  Rng rng(3100 + GetParam());
  const size_t m = 3;
  const int max_t = 3;
  const auto expr = testing::RandomBoolExpr(m, max_t, 3, rng);
  const auto automaton = EventAutomaton::Compile(*expr, m);
  ASSERT_TRUE(automaton.ok()) << expr->ToString();
  ForEachTrajectory(m, max_t, [&](const geo::Trajectory& traj) {
    EXPECT_EQ(automaton->Accepts(traj), expr->Evaluate(traj))
        << expr->ToString() << " on " << traj.ToString();
  });
}

INSTANTIATE_TEST_SUITE_P(Trials, AutomatonPropertyTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace priste::event
