// Ablation: mechanism family plugged into Algorithm 2 — planar Laplace vs
// spatial cloaking on the same event and privacy target. The calibrated
// budget is family-specific (α vs disk radius 1/α), so the comparable
// columns are the certified ε (identical by construction) and the utility.
#include <memory>

#include "bench_common.h"

#include "priste/lppm/mechanism_family.h"

int main() {
  using namespace priste;
  const auto scale = bench::Banner("Ablation: mechanism family",
                                   "planar Laplace vs spatial cloaking");
  const eval::SyntheticWorkload workload(scale, /*sigma=*/10.0);
  const geo::Grid& grid = workload.grid;
  const auto ev = bench::ScaledPresence(scale, grid.num_cells(), 10, 4, 8);
  std::printf("event: %s\n", ev->ToString().c_str());

  struct FamilyCase {
    std::string label;
    std::shared_ptr<const lppm::MechanismFamily> family;
    double initial_budget;
  };
  const std::vector<FamilyCase> cases = {
      {"planar-laplace (alpha=0.5)",
       std::make_shared<lppm::PlanarLaplaceFamily>(grid), 0.5},
      {"cloaking (R0=2km)",
       std::make_shared<lppm::CloakingFamily>(grid, /*radius_scale_km=*/2.0), 1.0},
  };

  eval::TablePrinter table({"family", "eps", "ave budget", "ave euclid (km)",
                            "halvings/run"});
  for (const auto& c : cases) {
    for (const double eps : {0.2, 0.5, 1.0}) {
      const auto stats = eval::RunRepeatedGeoInd(
          grid, workload.Chain(), {ev},
          eval::DefaultBenchOptions(eps, c.initial_budget), scale,
          /*seed=*/2001, c.family);
      table.AddRow({c.label, StrFormat("%.1f", eps),
                    StrFormat("%.4f", stats.mean_budget.mean()),
                    StrFormat("%.3f", stats.euclid_km.mean()),
                    StrFormat("%.1f", stats.halvings.mean())});
    }
  }
  table.Print(std::cout);
  std::printf(
      "\nReading: both families converge to the same certified ε; the\n"
      "utility they retain while doing so differs — the framework is\n"
      "mechanism-agnostic exactly as Section VI-A suggests.\n");
  return 0;
}
