// Table III: conservative-release threshold vs runtime and utility.
// For each QP time threshold the harness reports: average total run time,
// number of conservative (timed-out, withheld) releases, average released
// budget, and average Euclidean error.
// Expected shape (paper): larger thresholds → fewer conservative releases,
// longer runtime, better calibrated (larger) budgets.
#include "bench_common.h"

int main() {
  using namespace priste;
  const auto scale = bench::Banner(
      "Table III", "conservative release: QP threshold vs runtime/utility");
  const eval::SyntheticWorkload workload(scale, /*sigma=*/10.0);
  const auto ev = bench::ScaledPresence(scale, workload.grid.num_cells(), 10, 4, 8);
  std::printf("event: %s\n", ev->ToString().c_str());

  const auto options_for = [](double threshold_s) {
    core::PristeOptions options = eval::DefaultBenchOptions(0.5, 0.5);
    options.qp_threshold_seconds = threshold_s;
    return options;
  };

  eval::TablePrinter table({"threshold (s)", "ave total runtime (s)",
                            "# conservative", "ave budget", "ave euclid (km)"});
  for (const double threshold : {0.005, 0.02, 0.05, 0.1, 1.0, -1.0}) {
    const auto stats = eval::RunRepeatedGeoInd(
        workload.grid, workload.Chain(), {ev}, options_for(threshold), scale,
        /*seed=*/1501);
    table.AddRow({threshold > 0 ? StrFormat("%g", threshold) : std::string("none"),
                  StrFormat("%.2f", stats.run_seconds.mean()),
                  StrFormat("%.1f", stats.conservative_releases.mean()),
                  StrFormat("%.4f", stats.mean_budget.mean()),
                  StrFormat("%.3f", stats.euclid_km.mean())});
  }
  table.Print(std::cout);
  return 0;
}
