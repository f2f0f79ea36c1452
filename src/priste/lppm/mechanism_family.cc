#include "priste/lppm/mechanism_family.h"

#include <cmath>
#include <limits>

#include "priste/common/check.h"
#include "priste/common/strings.h"
#include "priste/lppm/planar_laplace.h"

namespace priste::lppm {

std::unique_ptr<Lppm> PlanarLaplaceFamily::Instantiate(double budget) const {
  PRISTE_CHECK(budget >= 0.0);
  return std::make_unique<PlanarLaplaceMechanism>(grid_, budget);
}

std::unique_ptr<Lppm> CloakingFamily::Instantiate(double budget) const {
  PRISTE_CHECK(budget >= 0.0);
  const double radius = budget <= 0.0 ? std::numeric_limits<double>::infinity()
                                      : radius_scale_km_ / budget;
  return std::make_unique<CloakingMechanism>(grid_, radius);
}

namespace {

hmm::EmissionMatrix BuildCloakingEmission(const geo::Grid& grid, double radius_km) {
  const size_t m = grid.num_cells();
  linalg::Matrix e(m, m);
  for (size_t i = 0; i < m; ++i) {
    size_t disk = 0;
    for (size_t o = 0; o < m; ++o) {
      if (grid.CellDistanceKm(static_cast<int>(i), static_cast<int>(o)) <=
          radius_km) {
        e(i, o) = 1.0;
        ++disk;
      }
    }
    PRISTE_CHECK(disk > 0);  // the true cell is always at distance 0
    for (size_t o = 0; o < m; ++o) e(i, o) /= static_cast<double>(disk);
  }
  auto result = hmm::EmissionMatrix::Create(std::move(e));
  PRISTE_CHECK_MSG(result.ok(), "cloaking emission invalid");
  return std::move(result).value();
}

}  // namespace

namespace {

// Validated in the member-init list, before any emission work starts.
double ValidateRadius(double radius_km) {
  PRISTE_CHECK(radius_km >= 0.0);
  return radius_km;
}

// Every radius of at least the map diameter puts the whole map in every
// disk, i.e. yields the same uniform matrix: such radii are keyed and built
// at +∞, so they share one cache entry.
double EmissionRadius(const geo::Grid& grid, double radius_km) {
  const double diameter =
      grid.CellDistanceKm(0, static_cast<int>(grid.num_cells()) - 1);
  return radius_km >= diameter ? std::numeric_limits<double>::infinity()
                               : radius_km;
}

}  // namespace

CloakingMechanism::CloakingMechanism(const geo::Grid& grid, double radius_km)
    : grid_(grid),
      radius_km_(ValidateRadius(radius_km)),
      emission_(EmissionCache::Shared().GetOrBuild(
          EmissionKey{EmissionKey::Kind::kCloaking, grid.width(), grid.height(),
                      grid.cell_size_km(), EmissionRadius(grid_, radius_km_)},
          [this] {
            return BuildCloakingEmission(grid_,
                                         EmissionRadius(grid_, radius_km_));
          })) {}

std::string CloakingMechanism::name() const {
  return StrFormat("cloak(R=%skm)", FormatDouble(radius_km_, 3).c_str());
}

}  // namespace priste::lppm
