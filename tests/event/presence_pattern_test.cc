#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "priste/event/enumeration.h"
#include "priste/event/pattern.h"
#include "priste/event/presence.h"
#include "testing/test_util.h"

namespace priste::event {
namespace {

using geo::Region;
using geo::Trajectory;

TEST(EventRuleTest, WindowNeedsOneBasedStartNoLaterThanEnd) {
  EXPECT_NE(ValidateWindow(0, 3).error().message.find(">= 1"),
            std::string::npos);
  EXPECT_NE(ValidateWindow(5, 3).error().message.find("non-empty"),
            std::string::npos);
  EXPECT_FALSE(ValidateWindow(-2147483647 - 1, 3).ok());
  for (const auto& [start, end] :
       {std::pair{1, 1}, std::pair{3, 3}, std::pair{1, 2147483647}}) {
    EXPECT_TRUE(ValidateWindow(start, end).ok()) << start << ":" << end;
  }
}

TEST(EventRuleTest, RegionNeedsCellsInsideTheMap) {
  EXPECT_NE(ValidateRegionCells(16, {}).error().message.find("non-empty"),
            std::string::npos);
  EXPECT_NE(ValidateRegionCells(16, {3, 16}).error().message.find("event cell 16"),
            std::string::npos);
  EXPECT_FALSE(ValidateRegionCells(16, {-1}).ok());
  EXPECT_FALSE(ValidateRegionCells(0, {0}).ok());
  EXPECT_TRUE(ValidateRegionCells(16, {0, 15, 15}).ok());
}

TEST(EventRuleDeathTest, ConstructorsCheckTheRule) {
  EXPECT_DEATH(PresenceEvent(Region(16, {1}), 0, 2), "timestamp >= 1");
  EXPECT_DEATH(PresenceEvent(Region(16, {1}), 3, 2), "non-empty");
  EXPECT_DEATH(PresenceEvent(Region(16), 1, 2), "event regions must be non-empty");
  EXPECT_DEATH(PatternEvent(std::vector<Region>{}, 1), "non-empty");
}

TEST(PresenceEventTest, HoldsWhenRegionTouched) {
  const PresenceEvent ev(Region(3, {0, 1}), /*start=*/3, /*end=*/4);
  EXPECT_EQ(ev.start(), 3);
  EXPECT_EQ(ev.end(), 4);
  EXPECT_TRUE(ev.Holds(Trajectory({2, 2, 0, 2, 2})));
  EXPECT_TRUE(ev.Holds(Trajectory({2, 2, 2, 1, 2})));
  EXPECT_FALSE(ev.Holds(Trajectory({0, 1, 2, 2, 0})));  // only outside window
}

TEST(PresenceEventTest, MakeUsesPaperShorthand) {
  const auto ev = PresenceEvent::Make(400, 1, 10, 4, 8);
  EXPECT_EQ(ev->start(), 4);
  EXPECT_EQ(ev->end(), 8);
  EXPECT_EQ(ev->RegionAt(4).Count(), 10u);
  EXPECT_TRUE(ev->RegionAt(4).Contains(0));
  EXPECT_TRUE(ev->RegionAt(8).Contains(9));
}

// A fixed-region event stores its region once: RegionAt answers every t of
// a long window with the same object.
TEST(PresenceEventTest, FixedRegionIsStoredOnce) {
  const PresenceEvent ev(Region(16, {5, 6}), /*start=*/2, /*end=*/200000);
  EXPECT_TRUE(ev.fixed_region());
  EXPECT_EQ(ev.window_length(), 199999);
  EXPECT_EQ(&ev.RegionAt(2), &ev.RegionAt(200000));
  EXPECT_EQ(ev.RegionAt(100000), Region(16, {5, 6}));
  // Per-timestamp regions keep one region per timestamp.
  const PatternEvent pattern({Region(3, {0, 1}), Region(3, {1, 2})}, 2);
  EXPECT_FALSE(pattern.fixed_region());
  EXPECT_EQ(pattern.RegionAt(3), Region(3, {1, 2}));
  const PatternEvent stay(Region(3, {2}), /*start=*/1, /*end=*/4);
  EXPECT_TRUE(stay.fixed_region());
  EXPECT_EQ(stay.end(), 4);
}

TEST(PresenceEventTest, BooleanExprMatchesTableTwo) {
  // Example II.1: PRESENCE in {s1,s2} at t∈{3,4} is
  // (u3=s1)∨(u3=s2)∨(u4=s1)∨(u4=s2).
  const PresenceEvent ev(Region(3, {0, 1}), 3, 4);
  EXPECT_EQ(ev.ToBooleanExpr()->ToString(),
            "((((u3=s1) | (u3=s2)) | (u4=s1)) | (u4=s2))");
}

TEST(PatternEventTest, HoldsRequiresEveryWindowStep) {
  // Example II.2: regions {s1,s2} at t=2 and {s2,s3} at t=3.
  const PatternEvent ev({Region(3, {0, 1}), Region(3, {1, 2})}, /*start=*/2);
  EXPECT_EQ(ev.end(), 3);
  EXPECT_TRUE(ev.Holds(Trajectory({2, 0, 1})));
  EXPECT_TRUE(ev.Holds(Trajectory({0, 1, 2})));
  EXPECT_FALSE(ev.Holds(Trajectory({0, 2, 1})));  // t=2 outside region
  EXPECT_FALSE(ev.Holds(Trajectory({0, 0, 0})));  // t=3 outside region
}

TEST(PatternEventTest, BooleanExprMatchesExampleII2) {
  const PatternEvent ev({Region(3, {0, 1}), Region(3, {1, 2})}, 2);
  EXPECT_EQ(ev.ToBooleanExpr()->ToString(),
            "(((u2=s1) | (u2=s2)) & ((u3=s2) | (u3=s3)))");
}

TEST(PatternEventTest, FromTrajectoryIsSingleTrajectorySecret) {
  const auto ev = PatternEvent::FromTrajectory(4, {1, 2, 3}, 2);
  EXPECT_TRUE(ev->Holds(Trajectory({0, 1, 2, 3})));
  EXPECT_FALSE(ev->Holds(Trajectory({0, 1, 2, 2})));
}

TEST(PatternEventTest, SingleTimestampWindow) {
  const PatternEvent ev(Region(3, {1}), 2, 2);
  EXPECT_EQ(ev.window_length(), 1);
  EXPECT_TRUE(ev.Holds(Trajectory({0, 1})));
  EXPECT_FALSE(ev.Holds(Trajectory({1, 0})));
}

// Property: Holds() agrees with the compiled Boolean expression on every
// trajectory, for random events of both kinds.
class EventExprEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(EventExprEquivalenceTest, PresenceHoldsMatchesBooleanExpr) {
  Rng rng(500 + GetParam());
  const size_t m = 3;
  const int start = 1 + static_cast<int>(rng.NextBelow(2));
  const int end = start + static_cast<int>(rng.NextBelow(2));
  std::vector<Region> regions;
  for (int t = start; t <= end; ++t) regions.push_back(testing::RandomRegion(m, rng));
  const PresenceEvent ev(regions, start);
  const auto expr = ev.ToBooleanExpr();
  ForEachTrajectory(m, end + 1, [&](const Trajectory& traj) {
    EXPECT_EQ(ev.Holds(traj), expr->Evaluate(traj)) << traj.ToString();
  });
}

TEST_P(EventExprEquivalenceTest, PatternHoldsMatchesBooleanExpr) {
  Rng rng(900 + GetParam());
  const size_t m = 3;
  const int start = 1 + static_cast<int>(rng.NextBelow(2));
  const int end = start + static_cast<int>(rng.NextBelow(2));
  std::vector<Region> regions;
  for (int t = start; t <= end; ++t) regions.push_back(testing::RandomRegion(m, rng));
  const PatternEvent ev(regions, start);
  const auto expr = ev.ToBooleanExpr();
  ForEachTrajectory(m, end + 1, [&](const Trajectory& traj) {
    EXPECT_EQ(ev.Holds(traj), expr->Evaluate(traj)) << traj.ToString();
  });
}

INSTANTIATE_TEST_SUITE_P(Trials, EventExprEquivalenceTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace priste::event
