// Ablation (DESIGN.md §4): evaluation order for the Lemma III.2 chain.
// The library computes b = (prefix of diag/transition factors) · seed as a
// right-to-left MATRIX-VECTOR chain, O(t·m²). The literal Algorithm-2
// reading maintains the prefix MATRIX A (one matrix-matrix product per
// step, O(m³) each). This bench measures both on the same inputs.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include "priste/common/timer.h"
#include "priste/core/quantifier.h"
#include "priste/core/two_world.h"
#include "priste/linalg/ops.h"
#include "priste/lppm/planar_laplace.h"

int main() {
  using namespace priste;
  const auto scale = bench::Banner(
      "Ablation: chain order", "vector chain vs matrix accumulation");
  // A modest grid keeps the O(m³) variant tractable.
  const int side = scale.full ? 14 : 10;
  const geo::Grid grid(side, side, 1.0);
  const geo::GaussianGridModel mobility(grid, 1.0);
  const size_t m = grid.num_cells();
  const auto ev = event::PresenceEvent::Make(m, 1, 8, 3, 5);
  const core::TwoWorldModel model(mobility.transition(), ev);
  const core::PrivacyQuantifier quantifier(&model);

  const lppm::PlanarLaplaceMechanism plm(grid, 0.5);
  Rng rng(1801);
  const markov::MarkovChain chain = mobility.ChainUniformStart();
  const int T = 12;
  const geo::Trajectory truth(chain.Sample(T, rng));
  std::vector<linalg::Vector> history;
  for (int t = 1; t <= T; ++t) {
    history.push_back(
        plm.emission().EmissionColumn(plm.Perturb(truth.At(t), rng)));
  }

  // Vector chain: ComputeVectors at every prefix (the library path).
  double vector_seconds = 0.0;
  {
    Timer timer;
    for (int t = 1; t <= T; ++t) {
      const auto v = quantifier.ComputeVectors(
          std::vector<linalg::Vector>(history.begin(), history.begin() + t));
      benchmark::DoNotOptimize(v.b_bar.Sum());
    }
    vector_seconds = timer.ElapsedSeconds();
  }

  // Matrix accumulation: A ← A · M_{t−1} · p̃ᴰ in the lifted 2m space.
  double matrix_seconds = 0.0;
  {
    Timer timer;
    linalg::Matrix a = linalg::Matrix::Identity(2 * m);
    for (int t = 1; t <= T; ++t) {
      if (t > 1) a = linalg::MatMul(a, model.TransitionAt(t - 1));
      // Right-scale by the duplicated emission diagonal.
      const linalg::Vector dup = history[static_cast<size_t>(t - 1)].Concat(
          history[static_cast<size_t>(t - 1)]);
      a = linalg::ScaleColumns(a, dup);
      // b via the maintained prefix matrix.
      const linalg::Vector seed =
          t <= model.event_end()
              ? model.SuffixTrue(t)
              : linalg::Vector::Zeros(m).Concat(linalg::Vector::Ones(m));
      benchmark::DoNotOptimize(linalg::MatVec(a, seed).Sum());
    }
    matrix_seconds = timer.ElapsedSeconds();
  }

  eval::TablePrinter table({"variant", "total (s)", "per timestamp (ms)"});
  table.AddRow({"vector chain O(t·m²)", StrFormat("%.4f", vector_seconds),
                StrFormat("%.2f", vector_seconds * 1000.0 / T)});
  table.AddRow({"matrix accumulation O(m³)", StrFormat("%.4f", matrix_seconds),
                StrFormat("%.2f", matrix_seconds * 1000.0 / T)});
  table.Print(std::cout);
  std::printf("\nspeedup: %.1fx (m = %zu, T = %d)\n",
              matrix_seconds / std::max(vector_seconds, 1e-12), m, T);
  return 0;
}
