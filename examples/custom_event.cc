// Beyond PRESENCE and PATTERN: protecting an ARBITRARY Boolean
// spatiotemporal event through the automaton lifting (the library's
// generalization of the paper's two-possible-world method).
//
// Secret: "the user visited the clinic block on AT LEAST TWO of the
// timestamps {2, 3, 4, 5}" — repeated visits are what turns a location
// into a diagnosis. Not expressible as a single PRESENCE (that is >= 1
// visit) or PATTERN (that is every-timestamp), but it is a Boolean
// combination of predicates, so it compiles to an event automaton and gets
// the full quantify-and-calibrate pipeline.
//
// Build & run:  ./build/examples/custom_event
#include <cmath>
#include <cstdio>
#include <memory>

#include "priste/core/automaton_world.h"
#include "priste/core/joint.h"
#include "priste/core/prior.h"
#include "priste/core/priste_geo_ind.h"
#include "priste/geo/gaussian_grid_model.h"

int main() {
  using namespace priste;
  Rng rng(17);

  const geo::Grid grid(8, 8, 1.0);
  const geo::GaussianGridModel mobility(grid, 1.0);

  // "At the clinic at time t": an OR over the clinic's cells.
  const std::vector<int> clinic = {grid.CellOf(3, 3), grid.CellOf(4, 3),
                                   grid.CellOf(3, 4), grid.CellOf(4, 4)};
  const auto at_clinic = [&](int t) {
    std::vector<event::BoolExpr::Ptr> cells;
    for (int c : clinic) cells.push_back(event::BoolExpr::Pred(t, c));
    return event::BoolExpr::OrAll(cells);
  };

  // "At least two visits in {2..5}": OR over all timestamp pairs.
  std::vector<event::BoolExpr::Ptr> pairs;
  for (int t1 = 2; t1 <= 5; ++t1) {
    for (int t2 = t1 + 1; t2 <= 5; ++t2) {
      pairs.push_back(event::BoolExpr::And(at_clinic(t1), at_clinic(t2)));
    }
  }
  const auto expr = event::BoolExpr::OrAll(pairs);
  std::printf("event predicates : %zu\n", expr->NumPredicates());

  auto model = core::AutomatonWorldModel::Create(
      markov::TransitionSchedule::Homogeneous(mobility.transition()), *expr);
  if (!model.ok()) {
    std::printf("compile failed: %s\n", model.status().ToString().c_str());
    return 1;
  }
  std::printf("automaton states : %d (lifted chain %zu states vs %zu raw)\n",
              (*model)->automaton().num_automaton_states(), (*model)->lifted_size(),
              grid.num_cells());

  const linalg::Vector pi = linalg::Vector::UniformProbability(grid.num_cells());
  std::printf("event prior      : %.5f\n", core::EventPrior(**model, pi));

  core::PristeOptions options;
  options.epsilon = 0.6;
  options.initial_alpha = 0.5;
  const core::PristeGeoInd priste(grid, {*model}, options);

  const markov::MarkovChain chain = mobility.ChainUniformStart();
  const geo::Trajectory truth(chain.Sample(8, rng));
  const auto result = priste.Run(truth, rng);
  if (!result.ok()) {
    std::printf("run failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("\n t | released | final alpha | halvings\n");
  for (int t = 1; t <= result->released.length(); ++t) {
    const auto& step = result->steps[static_cast<size_t>(t - 1)];
    std::printf("%2d | %8d | %11.4f | %d\n", t, result->released.At(t),
                step.released_alpha, step.halvings);
  }

  // Audit under the uniform prior.
  core::JointCalculator audit(model->get(), pi);
  double worst = 0.0;
  for (int t = 1; t <= result->released.length(); ++t) {
    const auto& step = result->steps[static_cast<size_t>(t - 1)];
    const lppm::PlanarLaplaceMechanism mech(grid, step.released_alpha);
    audit.Push(mech.emission().EmissionColumn(result->released.At(t)));
    worst = std::max(worst, std::fabs(std::log(audit.LikelihoodRatio())));
  }
  std::printf("\nworst |ln ratio| : %.4f <= eps = %.2f : %s\n", worst,
              options.epsilon,
              worst <= options.epsilon + 1e-9 ? "OK" : "VIOLATED");
  return 0;
}
