#include "priste/lppm/mechanism_family.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "priste/core/joint.h"
#include "priste/core/priste_geo_ind.h"
#include "priste/core/two_world.h"
#include "priste/event/presence.h"
#include "priste/geo/gaussian_grid_model.h"
#include "testing/test_util.h"

namespace priste::lppm {
namespace {

TEST(CloakingMechanismTest, SupportIsTheDisk) {
  const geo::Grid grid(5, 1, 1.0);  // 5 cells in a row
  const CloakingMechanism mech(grid, 1.5);
  // From cell 2, cells within 1.5 km: 1, 2, 3.
  const linalg::Vector row = mech.emission().OutputDistribution(2);
  EXPECT_DOUBLE_EQ(row[0], 0.0);
  EXPECT_NEAR(row[1], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(row[2], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(row[3], 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(row[4], 0.0);
}

TEST(CloakingMechanismTest, ZeroRadiusIsTruthful) {
  const geo::Grid grid(3, 3, 1.0);
  const CloakingMechanism mech(grid, 0.0);
  for (size_t s = 0; s < 9; ++s) {
    EXPECT_DOUBLE_EQ(mech.emission()(s, s), 1.0);
  }
}

TEST(CloakingFamilyTest, BudgetZeroIsUniform) {
  const geo::Grid grid(4, 4, 1.0);
  const CloakingFamily family(grid);
  const auto mech = family.Instantiate(0.0);
  EXPECT_NEAR(mech->emission()(3, 12), 1.0 / 16.0, 1e-12);
}

TEST(CloakingFamilyTest, SmallerBudgetLargerDisk) {
  const geo::Grid grid(6, 6, 1.0);
  const CloakingFamily family(grid);
  const auto tight = family.Instantiate(1.0);   // R = 1 km
  const auto loose = family.Instantiate(0.25);  // R = 4 km
  // Loose spreads over more cells: smaller per-cell probability at truth.
  EXPECT_GT(tight->emission()(14, 14), loose->emission()(14, 14));
}

TEST(PlanarLaplaceFamilyTest, InstantiatesPlm) {
  const geo::Grid grid(4, 4, 1.0);
  const PlanarLaplaceFamily family(grid);
  const auto mech = family.Instantiate(0.5);
  EXPECT_EQ(mech->num_states(), 16u);
  EXPECT_EQ(mech->name(), "0.5-PLM");
}

TEST(MechanismFamilyTest, PristeCalibratesCloakingFamily) {
  // End-to-end: Algorithm 2 over the cloaking family still certifies the
  // ε-spatiotemporal-event-privacy bound.
  const geo::Grid grid(4, 4, 1.0);
  const geo::GaussianGridModel mobility(grid, 1.0);
  const auto ev = std::make_shared<event::PresenceEvent>(
      geo::Region(16, {0, 1, 4, 5}), 3, 4);
  const auto model =
      std::make_shared<core::TwoWorldModel>(mobility.transition(), ev);

  core::PristeOptions options;
  const double epsilon = 0.8;
  options.epsilon = epsilon;
  options.initial_alpha = 1.0;  // cloaking budget: R = 1 km initially

  const auto family = std::make_shared<CloakingFamily>(grid);
  const core::PristeGeoInd priste(grid, {model}, options, family);
  Rng rng(81);
  const markov::MarkovChain chain = mobility.ChainUniformStart();
  const geo::Trajectory truth(chain.Sample(6, rng));
  const auto result = priste.Run(truth, rng);
  ASSERT_TRUE(result.ok()) << result.status();

  Rng prior_rng(83);
  for (int trial = 0; trial < 15; ++trial) {
    const linalg::Vector pi = testing::RandomProbability(16, prior_rng);
    core::JointCalculator calc(model.get(), pi);
    for (int t = 1; t <= result->released.length(); ++t) {
      const auto mech = family->Instantiate(
          result->steps[static_cast<size_t>(t - 1)].released_alpha);
      calc.Push(mech->emission().EmissionColumn(result->released.At(t)));
      EXPECT_LE(calc.LikelihoodRatio(), std::exp(epsilon) * (1 + 1e-6))
          << "t=" << t;
      EXPECT_GE(calc.LikelihoodRatio(), std::exp(-epsilon) * (1 - 1e-6))
          << "t=" << t;
    }
  }
}

TEST(MechanismFamilyTest, FamilyAccessorReportsName) {
  const geo::Grid grid(3, 3, 1.0);
  const geo::GaussianGridModel mobility(grid, 1.0);
  const auto ev = std::make_shared<event::PresenceEvent>(geo::Region(9, {0}), 2, 2);
  const auto model =
      std::make_shared<core::TwoWorldModel>(mobility.transition(), ev);
  core::PristeOptions options;
  const core::PristeGeoInd default_family(grid, {model}, options);
  EXPECT_EQ(default_family.family().name(), "planar-laplace");
  const core::PristeGeoInd cloaking(grid, {model}, options,
                                    std::make_shared<CloakingFamily>(grid));
  EXPECT_EQ(cloaking.family().name(), "spatial-cloaking");
}

}  // namespace
}  // namespace priste::lppm
