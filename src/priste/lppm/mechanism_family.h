#ifndef PRISTE_LPPM_MECHANISM_FAMILY_H_
#define PRISTE_LPPM_MECHANISM_FAMILY_H_

#include <memory>
#include <string>

#include "priste/geo/grid.h"
#include "priste/lppm/emission_cache.h"
#include "priste/lppm/lppm.h"

namespace priste::lppm {

/// A budget-indexed family of LPPMs — the object Algorithm 2 actually
/// calibrates. The paper instantiates PriSTE with the planar Laplace family
/// and notes (Section VI-A) that alternative mechanisms slot into the
/// framework; this interface is that slot. Requirements:
///
///  * Instantiate(b) for b > 0 is a valid mechanism whose information
///    disclosure decreases as b → 0;
///  * Instantiate(0) is the uniform (zero-information) release over the
///    whole map — Algorithm 2's convergence anchor.
class MechanismFamily {
 public:
  virtual ~MechanismFamily() = default;

  virtual std::string name() const = 0;

  /// Number of map cells all instances share.
  virtual size_t num_states() const = 0;

  /// The family member at `budget` (>= 0).
  virtual std::unique_ptr<Lppm> Instantiate(double budget) const = 0;
};

/// The α-planar-Laplace family (the paper's Case Study 1 mechanism).
class PlanarLaplaceFamily : public MechanismFamily {
 public:
  explicit PlanarLaplaceFamily(geo::Grid grid) : grid_(grid) {}

  std::string name() const override { return "planar-laplace"; }
  size_t num_states() const override { return grid_.num_cells(); }
  std::unique_ptr<Lppm> Instantiate(double budget) const override;

 private:
  geo::Grid grid_;
};

/// Spatial cloaking in the style of Gruteser & Grunwald (MobiSys'03),
/// adapted to per-cell reporting: the release is uniform over all cells
/// within radius R of the true cell, with R = radius_scale_km / budget.
/// A larger budget means a smaller disk (more disclosure); budget 0 is the
/// uniform release over the whole map. Unlike planar Laplace the output
/// distribution has bounded support, so it provides no
/// geo-indistinguishability guarantee — which is exactly the kind of LPPM
/// the PriSTE quantification loop is designed to audit and calibrate.
class CloakingFamily : public MechanismFamily {
 public:
  CloakingFamily(geo::Grid grid, double radius_scale_km = 1.0)
      : grid_(grid), radius_scale_km_(radius_scale_km) {}

  std::string name() const override { return "spatial-cloaking"; }
  size_t num_states() const override { return grid_.num_cells(); }
  std::unique_ptr<Lppm> Instantiate(double budget) const override;

  double radius_scale_km() const { return radius_scale_km_; }

 private:
  geo::Grid grid_;
  double radius_scale_km_;
};

/// A single cloaking mechanism: uniform over the disk of `radius_km` around
/// the true cell (always includes the true cell). Exposed for direct use
/// and tests; CloakingFamily::Instantiate produces these.
class CloakingMechanism : public Lppm {
 public:
  CloakingMechanism(const geo::Grid& grid, double radius_km);

  size_t num_states() const override { return grid_.num_cells(); }
  const hmm::EmissionMatrix& emission() const override { return *emission_; }
  std::string name() const override;

  double radius_km() const { return radius_km_; }

 private:
  geo::Grid grid_;
  double radius_km_;
  /// Shared through the process-wide EmissionCache, like the planar-Laplace
  /// emission (key kind kCloaking, param = radius_km, or +∞ for every radius
  /// that covers the whole map).
  EmissionCache::Handle emission_;
};

}  // namespace priste::lppm

#endif  // PRISTE_LPPM_MECHANISM_FAMILY_H_
