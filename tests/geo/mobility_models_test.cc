#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "priste/geo/commuter_model.h"
#include "priste/geo/gaussian_grid_model.h"
#include "priste/markov/estimator.h"

namespace priste::geo {
namespace {

TEST(GaussianGridModelTest, TransitionIsValidChain) {
  const GaussianGridModel model(Grid(8, 8, 1.0), 1.0);
  EXPECT_TRUE(model.transition().matrix().IsRowStochastic(1e-9));
}

TEST(GaussianGridModelTest, SmallSigmaConcentratesOnNeighbours) {
  const Grid grid(8, 8, 1.0);
  const GaussianGridModel tight(grid, 0.5);
  const GaussianGridModel loose(grid, 10.0);
  // From the center cell, probability of staying within the 8-neighbourhood.
  const int center = grid.CellOf(4, 4);
  const auto neighbourhood_mass = [&](const GaussianGridModel& model) {
    double mass = 0.0;
    for (int dc = -1; dc <= 1; ++dc) {
      for (int dr = -1; dr <= 1; ++dr) {
        mass += model.transition()(static_cast<size_t>(center),
                                   static_cast<size_t>(grid.CellOf(4 + dc, 4 + dr)));
      }
    }
    return mass;
  };
  EXPECT_GT(neighbourhood_mass(tight), 0.95);
  EXPECT_LT(neighbourhood_mass(loose), 0.5);
}

TEST(GaussianGridModelTest, TransitionDecaysWithDistance) {
  const Grid grid(6, 6, 1.0);
  const GaussianGridModel model(grid, 1.0);
  const size_t from = static_cast<size_t>(grid.CellOf(0, 0));
  const double near = model.transition()(from, static_cast<size_t>(grid.CellOf(1, 0)));
  const double far = model.transition()(from, static_cast<size_t>(grid.CellOf(5, 5)));
  EXPECT_GT(near, far);
}

TEST(GaussianGridModelTest, TinySigmaYieldsTheIdentityChain) {
  // 2σ² underflows to 0, so the kernel scale is +inf: every off-diagonal
  // weight is exp(-inf) = 0, and the diagonal weight must stay 1, not NaN.
  const GaussianGridModel model(Grid(4, 4, 1.0), 1e-200);
  for (size_t a = 0; a < 16; ++a) {
    for (size_t b = 0; b < 16; ++b) {
      EXPECT_EQ(model.transition()(a, b), a == b ? 1.0 : 0.0);
    }
  }
}

TEST(GaussianGridModelDeathTest, NonPositiveOrNanSigmaDiesOnTheSigmaCheck) {
  const Grid grid(4, 4, 1.0);
  for (const double sigma :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_DEATH(GaussianGridModel(grid, sigma),
                 "Gaussian kernel sigma must be > 0");
  }
}

TEST(GaussianGridModelTest, SigmaRuleRefusesNonPositiveOrNan) {
  for (const double sigma :
       {0.0, -0.0, -1.0, -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    const Result<void> rule = ValidateSigma(sigma);
    ASSERT_FALSE(rule.ok()) << sigma;
    EXPECT_NE(rule.error().message.find("sigma must be > 0"), std::string::npos);
  }
  for (const double sigma : {std::numeric_limits<double>::denorm_min(), 1e-155,
                             1.0, std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::infinity()}) {
    EXPECT_TRUE(ValidateSigma(sigma).ok()) << sigma;
  }
}

TEST(CommuterModelTest, AnchorsInOppositeQuadrants) {
  Rng rng(5);
  const Grid grid(20, 20, 1.0);
  const CommuterTrajectoryModel model(grid, {}, rng);
  EXPECT_LT(grid.ColOf(model.home_cell()), grid.width() / 3);
  EXPECT_GE(grid.ColOf(model.work_cell()), (2 * grid.width()) / 3);
}

TEST(CommuterModelTest, TrajectoryVisitsBothAnchors) {
  Rng rng(7);
  const Grid grid(12, 12, 1.0);
  const CommuterTrajectoryModel model(grid, {}, rng);
  const Trajectory t = model.SampleDays(3, rng);
  bool saw_home = false, saw_work = false;
  for (int s : t.states()) {
    saw_home = saw_home || s == model.home_cell();
    saw_work = saw_work || s == model.work_cell();
  }
  EXPECT_TRUE(saw_home);
  EXPECT_TRUE(saw_work);
}

TEST(CommuterModelTest, StepsAreGridNeighbours) {
  Rng rng(9);
  const Grid grid(10, 10, 1.0);
  const CommuterTrajectoryModel model(grid, {}, rng);
  const Trajectory t = model.SampleDays(2, rng);
  for (int i = 2; i <= t.length(); ++i) {
    const int dc = std::abs(grid.ColOf(t.At(i)) - grid.ColOf(t.At(i - 1)));
    const int dr = std::abs(grid.RowOf(t.At(i)) - grid.RowOf(t.At(i - 1)));
    // Dwell resets to the anchor, commute moves by at most one cell per axis;
    // excursion commutes also move stepwise. Anchor snaps can jump after a
    // jitter, so allow a 2-cell envelope.
    EXPECT_LE(dc, 2);
    EXPECT_LE(dr, 2);
  }
}

TEST(CommuterModelTest, TrainedChainHasCommuteStructure) {
  Rng rng(11);
  const Grid grid(10, 10, 1.0);
  const CommuterTrajectoryModel model(grid, {}, rng);
  const auto training = model.SampleTrainingSet(20, 5, rng);
  const auto chain = markov::EstimateTransitionMatrix(training, grid.num_cells(),
                                                      /*smoothing=*/0.0);
  ASSERT_TRUE(chain.ok());
  // Strong self-loop at home (dwelling) relative to a random cell.
  const size_t home = static_cast<size_t>(model.home_cell());
  EXPECT_GT((*chain)(home, home), 0.3);
}

}  // namespace
}  // namespace priste::geo
