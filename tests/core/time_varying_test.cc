// Time-varying Markov chains through the two-world construction — the
// paper's Section III footnote 3 claim, validated against brute-force
// enumeration with per-step matrices.
#include <memory>

#include <gtest/gtest.h>

#include "priste/core/joint.h"
#include "priste/core/prior.h"
#include "priste/core/two_world.h"
#include "priste/event/enumeration.h"
#include "priste/event/pattern.h"
#include "priste/event/presence.h"
#include "testing/test_util.h"

namespace priste::core {
namespace {

using markov::TransitionSchedule;

double OraclePrior(const TransitionSchedule& schedule, const linalg::Vector& pi,
                   const event::BoolExpr& expr, int horizon) {
  double total = 0.0;
  event::ForEachTrajectory(schedule.num_states(), horizon,
                           [&](const geo::Trajectory& traj) {
                             if (!expr.Evaluate(traj)) return;
                             double p = pi[static_cast<size_t>(traj.At(1))];
                             for (int t = 2; t <= horizon; ++t) {
                               p *= schedule.AtStep(t - 1)(
                                   static_cast<size_t>(traj.At(t - 1)),
                                   static_cast<size_t>(traj.At(t)));
                             }
                             total += p;
                           });
  return total;
}

class TimeVaryingTwoWorldTest : public ::testing::TestWithParam<int> {};

TEST_P(TimeVaryingTwoWorldTest, PriorMatchesEnumeration) {
  Rng rng(7100 + GetParam());
  const size_t m = 3;
  auto schedule = TransitionSchedule::Cyclic(
      {testing::RandomTransition(m, rng), testing::RandomTransition(m, rng),
       testing::RandomTransition(m, rng)});
  ASSERT_TRUE(schedule.ok());
  const linalg::Vector pi = testing::RandomProbability(m, rng);
  const bool presence = GetParam() % 2 == 0;
  const int start = 1 + GetParam() % 3;
  const int window = 1 + GetParam() % 3;
  std::vector<geo::Region> regions;
  for (int i = 0; i < window; ++i) regions.push_back(testing::RandomRegion(m, rng));
  event::EventPtr ev;
  if (presence) {
    ev = std::make_shared<event::PresenceEvent>(regions, start);
  } else {
    ev = std::make_shared<event::PatternEvent>(regions, start);
  }

  const TwoWorldModel model(*schedule, ev);
  const double oracle = OraclePrior(*schedule, pi, *ev->ToBooleanExpr(), ev->end());
  EXPECT_NEAR(EventPrior(model, pi), oracle, 1e-12)
      << (presence ? "PRESENCE" : "PATTERN") << " start=" << start;
}

TEST_P(TimeVaryingTwoWorldTest, JointMatchesEnumeration) {
  Rng rng(7300 + GetParam());
  const size_t m = 3;
  auto schedule = TransitionSchedule::Cyclic(
      {testing::RandomTransition(m, rng), testing::RandomTransition(m, rng)});
  ASSERT_TRUE(schedule.ok());
  const linalg::Vector pi = testing::RandomProbability(m, rng);
  const auto ev = std::make_shared<event::PresenceEvent>(
      testing::RandomRegion(m, rng), 2, 3);
  const TwoWorldModel model(*schedule, ev);
  const auto expr = ev->ToBooleanExpr();

  JointCalculator calc(&model, pi);
  std::vector<linalg::Vector> emissions;
  for (int t = 1; t <= 5; ++t) {
    emissions.push_back(testing::RandomEmissionColumn(m, rng));
    calc.Push(emissions.back());

    std::vector<linalg::Vector> padded = emissions;
    while (static_cast<int>(padded.size()) < ev->end()) {
      padded.push_back(linalg::Vector::Ones(m));
    }
    const int horizon = static_cast<int>(padded.size());
    double oracle = 0.0;
    event::ForEachTrajectory(m, horizon, [&](const geo::Trajectory& traj) {
      if (!expr->Evaluate(traj)) return;
      double p = pi[static_cast<size_t>(traj.At(1))];
      for (int i = 2; i <= horizon; ++i) {
        p *= schedule->AtStep(i - 1)(static_cast<size_t>(traj.At(i - 1)),
                                     static_cast<size_t>(traj.At(i)));
      }
      for (int i = 1; i <= horizon; ++i) {
        p *= padded[static_cast<size_t>(i - 1)][static_cast<size_t>(traj.At(i))];
      }
      oracle += p;
    });
    EXPECT_NEAR(calc.JointEvent(), oracle, 1e-12) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Trials, TimeVaryingTwoWorldTest, ::testing::Range(0, 10));

TEST(TimeVaryingTwoWorldTest, HomogeneousScheduleMatchesPlainConstructor) {
  Rng rng(71);
  const size_t m = 4;
  const auto chain = testing::RandomTransition(m, rng);
  const linalg::Vector pi = testing::RandomProbability(m, rng);
  const auto ev = std::make_shared<event::PresenceEvent>(
      testing::RandomRegion(m, rng), 2, 4);
  const TwoWorldModel direct(chain, ev);
  const TwoWorldModel scheduled(TransitionSchedule::Homogeneous(chain), ev);
  EXPECT_LT(direct.PriorContraction()
                .Minus(scheduled.PriorContraction())
                .MaxAbs(),
            1e-15);
}

TEST(TimeVaryingTwoWorldTest, LiftedMatricesStayStochastic) {
  Rng rng(73);
  const size_t m = 3;
  auto schedule = TransitionSchedule::Cyclic(
      {testing::RandomTransition(m, rng), testing::RandomTransition(m, rng)});
  ASSERT_TRUE(schedule.ok());
  const auto ev = std::make_shared<event::PatternEvent>(
      std::vector<geo::Region>{testing::RandomRegion(m, rng),
                               testing::RandomRegion(m, rng)},
      2);
  const TwoWorldModel model(*schedule, ev);
  for (int t = 1; t <= 6; ++t) {
    EXPECT_TRUE(model.TransitionAt(t).IsRowStochastic(1e-9)) << "t=" << t;
  }
}

}  // namespace
}  // namespace priste::core
