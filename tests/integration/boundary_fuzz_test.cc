// Seeded boundary fuzz. Every input rule meets parameter tuples drawn from
// edge values (0, −0, ±1, NaN, ±∞, DBL_MIN, denormals, DBL_MAX, INT_MAX,
// ...); wherever the rules accept, the constructors run, and so do short
// runs of both drivers (Algorithm 2 with planar Laplace and with cloaking,
// Algorithm 3) on true trajectories, on mutated ones and on trajectories
// parsed from mutated CSV text. Every call must return a value or a typed
// Error: an abort, a sanitizer report or a hang fails the entry. One seeded
// Rng, no threads, a few thousand cases.
#include <algorithm>
#include <cfloat>
#include <climits>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "priste/common/random.h"
#include "priste/common/strings.h"
#include "priste/core/priste_delta_loc.h"
#include "priste/core/priste_geo_ind.h"
#include "priste/event/presence.h"
#include "priste/geo/gaussian_grid_model.h"
#include "priste/io/trajectory_io.h"
#include "priste/lppm/delta_location_set.h"
#include "priste/lppm/mechanism_family.h"
#include "priste/lppm/planar_laplace.h"

namespace priste {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();

const std::vector<double> kEdgeDoubles = {
    0.0,     -0.0,     1.0,      -1.0,     kNan,     kInf,
    -kInf,   DBL_MIN,  -DBL_MIN, kDenorm,  -kDenorm, 1e-310,
    DBL_MAX, -DBL_MAX, INT_MAX,  0.5,      0.2,      1e-4,
    3e-307,  1e300,    2.0,      std::nextafter(1.0, 0.0)};

const std::vector<int> kEdgeInts = {0,  -1,   1,    2,     3,      4,
                                    6,  64,   65,   4096,  4097,   50000,
                                    100000, INT_MAX, INT_MIN};

// The small values the drivers can run on: grid sides, window ends, cells.
const std::vector<int> kSmallInts = {0, 1, 2, 3, 4, 5, 6};

template <typename T>
T Pick(const std::vector<T>& pool, Rng& rng) {
  return pool[rng.NextBelow(pool.size())];
}

// An edge value one time in `one_in`, else one of `typical`.
double Mostly(const std::vector<double>& typical, int one_in, Rng& rng) {
  return rng.NextBelow(one_in) == 0 ? Pick(kEdgeDoubles, rng)
                                    : Pick(typical, rng);
}

struct Tally {
  int cases = 0;
  int accepted = 0;
  int runs = 0;
  int run_errors = 0;
  // Per rule, in RulesAccept's order: how often it accepted and refused.
  int rule_accepts[9] = {};
  int rule_refusals[9] = {};
};

// One draw of every input a rule guards: the flag-level inputs, as
// priste_cli builds them, and the cloaking family's scale.
struct Inputs {
  int width = 4;
  int height = 4;
  double cell_km = 1.0;
  double sigma = 1.0;
  std::vector<int> cells;
  int start = 1;
  int end = 1;
  double delta = 0.2;
  double radius_scale_km = 1.0;
  core::PristeOptions options;
};

// Runs every rule on `in`; true when all accept. Each refusal must carry
// a message.
bool RulesAccept(const Inputs& in, Tally& tally) {
  const size_t num_cells =
      static_cast<size_t>(in.width < 0 ? 0 : in.width) *
      static_cast<size_t>(in.height < 0 ? 0 : in.height);
  const Result<void> rules[] = {
      geo::ValidateGridSides(in.width, in.height),
      geo::ValidateGrid(in.width, in.height, in.cell_km),
      geo::ValidateSigma(in.sigma),
      event::ValidateWindow(in.start, in.end),
      event::ValidateRegionCells(num_cells, in.cells),
      lppm::ValidateBudget(in.options.initial_alpha),
      core::ValidatePristeOptions(in.options),
      lppm::ValidateDelta(in.delta),
      lppm::ValidateCloakingScale(in.radius_scale_km),
  };
  bool all = true;
  for (size_t r = 0; r < std::size(rules); ++r) {
    if (rules[r].ok()) {
      ++tally.rule_accepts[r];
    } else {
      EXPECT_FALSE(rules[r].error().message.empty());
      ++tally.rule_refusals[r];
      all = false;
    }
  }
  return all;
}

// Builds both drivers and the three mechanisms from `in` and runs each on
// `truth`. Every result must be a value or a typed error.
void RunDrivers(const Inputs& in, const geo::Trajectory& truth, Tally& tally) {
  const geo::Grid grid(in.width, in.height, in.cell_km);
  const geo::GaussianGridModel mobility(grid, in.sigma);
  const auto event = std::make_shared<event::PresenceEvent>(
      geo::Region(grid.num_cells(), in.cells), in.start, in.end);
  Rng rng(static_cast<uint64_t>(tally.runs) + 1);
  const auto check = [&](const Result<core::RunResult>& result) {
    ++tally.runs;
    if (!result.ok()) {
      ++tally.run_errors;
      EXPECT_FALSE(result.error().message.empty());
      return;
    }
    ASSERT_EQ(result->released.length(), truth.length());
    for (int t = 1; t <= truth.length(); ++t) {
      EXPECT_TRUE(grid.ContainsCell(result->released.At(t)));
    }
  };
  const core::PristeGeoInd plm(grid, mobility.transition(), {event},
                               in.options);
  check(plm.Run(truth, rng));
  const core::PristeGeoInd cloak(
      grid,
      {std::make_shared<core::TwoWorldModel>(mobility.transition(), event)},
      in.options, std::make_shared<lppm::CloakingFamily>(grid));
  check(cloak.Run(truth, rng));
  const core::PristeDeltaLoc delta_loc(
      grid, mobility.transition(), {event}, in.delta,
      linalg::Vector::UniformProbability(grid.num_cells()), in.options);
  check(delta_loc.Run(truth, rng));
}

TEST(BoundaryFuzzTest, RulesAndConstructorsOnEdgeTuples) {
  Rng rng(0x5eed28);
  Tally tally;
  for (int c = 0; c < 3000; ++c) {
    Inputs in;
    in.width = Pick(rng.NextBelow(2) == 0 ? kEdgeInts : kSmallInts, rng);
    in.height = Pick(rng.NextBelow(2) == 0 ? kEdgeInts : kSmallInts, rng);
    in.cell_km = Pick(kEdgeDoubles, rng);
    in.sigma = Pick(kEdgeDoubles, rng);
    in.start = Pick(kEdgeInts, rng);
    in.end = Pick(kEdgeInts, rng);
    for (uint64_t k = rng.NextBelow(3); k > 0; --k) {
      in.cells.push_back(Pick(kEdgeInts, rng));
    }
    in.delta = Pick(kEdgeDoubles, rng);
    in.options.epsilon = Pick(kEdgeDoubles, rng);
    in.options.decay = Pick(kEdgeDoubles, rng);
    in.options.initial_alpha = Pick(kEdgeDoubles, rng);
    in.options.min_alpha = Pick(kEdgeDoubles, rng);
    const double budget = Pick(kEdgeDoubles, rng);
    in.radius_scale_km = Pick(kEdgeDoubles, rng);
    ++tally.cases;
    tally.accepted += RulesAccept(in, tally) ? 1 : 0;

    // Each rule's constructor wherever that rule accepts.
    if (!geo::ValidateGrid(in.width, in.height, in.cell_km).ok()) continue;
    const geo::Grid grid(in.width, in.height, in.cell_km);
    const bool small = grid.num_cells() <= 36;
    if (event::ValidateWindow(in.start, in.end).ok() &&
        event::ValidateRegionCells(grid.num_cells(), in.cells).ok()) {
      const event::PresenceEvent event(
          geo::Region(grid.num_cells(), in.cells), in.start, in.end);
      EXPECT_EQ(event.num_states(), grid.num_cells());
    }
    if (!small) continue;
    if (geo::ValidateSigma(in.sigma).ok()) {
      const geo::GaussianGridModel model(grid, in.sigma);
      EXPECT_EQ(model.transition().num_states(), grid.num_cells());
    }
    if (lppm::ValidateDelta(in.delta).ok()) {
      EXPECT_TRUE(lppm::DeltaLocationSet(
                      linalg::Vector::UniformProbability(grid.num_cells()),
                      in.delta)
                      .ok());
    }
    if (lppm::ValidateBudget(budget).ok()) {
      const lppm::PlanarLaplaceMechanism plm(grid, budget);
      EXPECT_EQ(plm.num_states(), grid.num_cells());
      const lppm::PlanarLaplaceFamily plm_family(grid);
      EXPECT_EQ(plm_family.Instantiate(budget)->num_states(), grid.num_cells());
      EXPECT_EQ(lppm::CloakingFamily(grid).Instantiate(budget)->num_states(),
                grid.num_cells());
      const lppm::DeltaRestrictedPlanarLaplace restricted(
          grid, budget, geo::Region(grid.num_cells(), {0}));
      EXPECT_EQ(restricted.EmissionColumn(0).size(), grid.num_cells());
    }
    if (lppm::ValidateCloakingScale(in.radius_scale_km).ok()) {
      const lppm::CloakingFamily cloaking(grid, in.radius_scale_km);
      for (const double b : {0.0, in.options.min_alpha, 1.0}) {
        if (!lppm::ValidateBudget(b).ok()) continue;
        EXPECT_EQ(cloaking.Instantiate(b)->num_states(), grid.num_cells());
      }
    }
  }
  for (size_t r = 0; r < std::size(tally.rule_accepts); ++r) {
    EXPECT_GT(tally.rule_accepts[r], 0) << "rule " << r;
    EXPECT_GT(tally.rule_refusals[r], 0) << "rule " << r;
  }
  std::printf("rule cases: %d, all rules accepted: %d\n", tally.cases,
              tally.accepted);
}

TEST(BoundaryFuzzTest, DriversRunWhereverTheRulesAccept) {
  Rng rng(0xd71e);
  Tally tally;
  for (int c = 0; c < 400; ++c) {
    Inputs in;
    in.width = Pick(kSmallInts, rng);
    in.height = Pick(kSmallInts, rng);
    in.cell_km = Mostly({1.0, 0.3, 2.5}, 3, rng);
    in.sigma = Mostly({1.0, 0.5, 3.0}, 3, rng);
    in.start = Pick(kSmallInts, rng);
    in.end = std::min(in.start + static_cast<int>(rng.NextBelow(3)), 6);
    for (uint64_t k = 1 + rng.NextBelow(3); k > 0; --k) {
      in.cells.push_back(Pick(kSmallInts, rng));
    }
    in.delta = Mostly({0.0, 0.2, 0.5}, 3, rng);
    in.options.epsilon = Mostly({0.0, 0.5, 2.0}, 3, rng);
    in.options.decay = Mostly({0.5, 0.25}, 3, rng);
    in.options.initial_alpha = Mostly({0.5, 1.0, 0.0}, 3, rng);
    in.options.min_alpha = Mostly({1e-4, 0.01}, 3, rng);
    ++tally.cases;
    if (!RulesAccept(in, tally)) continue;
    ++tally.accepted;

    // A true trajectory that covers the window, up to 6 cells, one time in
    // four mutated: cut short, emptied, or given a cell outside the grid.
    const int m = in.width * in.height;
    const int length = std::max(in.end, 1 + static_cast<int>(rng.NextBelow(6)));
    std::vector<int> cells(static_cast<size_t>(length));
    for (int& cell : cells) cell = static_cast<int>(rng.NextBelow(m));
    if (rng.NextBelow(4) == 0) {
      switch (rng.NextBelow(3)) {
        case 0: cells.resize(rng.NextBelow(cells.size())); break;
        case 1: cells.clear(); break;
        default: cells[rng.NextBelow(cells.size())] = Pick(kEdgeInts, rng);
      }
    }
    const geo::Trajectory truth(cells);
    // As priste_cli does, a window past the trajectory is refused before
    // the event and its model are built.
    if (!core::ValidateEventWindow(truth.length(), in.end).ok()) continue;
    RunDrivers(in, truth, tally);
  }
  EXPECT_GT(tally.runs, 0);
  std::printf("driver cases: %d, accepted: %d, runs: %d, typed errors: %d\n",
              tally.cases, tally.accepted, tally.runs, tally.run_errors);
}

// One random edit of CSV text: a character deleted, inserted or replaced,
// a field replaced by an edge token, a line duplicated, or a cut.
std::string Mutate(std::string csv, Rng& rng) {
  static const std::string kChars = "0123456789,.-+eEx \t\r\nnaif";
  static const std::vector<std::string> kTokens = {
      "",     "-0",   "nan",        "inf",  "-inf",         "1e400",
      "1e-400", "2147483648", "-2147483649", "99999999999999999999", "0x10",
      "1.5",  " 3",   "t",          "cell", "x_km",         "y_km"};
  const size_t at = csv.empty() ? 0 : rng.NextBelow(csv.size());
  switch (rng.NextBelow(6)) {
    case 0:
      if (!csv.empty()) csv.erase(at, 1);
      break;
    case 1:
      csv.insert(at, 1, kChars[rng.NextBelow(kChars.size())]);
      break;
    case 2:
      if (!csv.empty()) csv[at] = kChars[rng.NextBelow(kChars.size())];
      break;
    case 3: {
      // Replace the field around `at`.
      size_t lo = at;
      while (lo > 0 && csv[lo - 1] != ',' && csv[lo - 1] != '\n') --lo;
      size_t hi = at;
      while (hi < csv.size() && csv[hi] != ',' && csv[hi] != '\n') ++hi;
      csv.replace(lo, hi - lo, Pick(kTokens, rng));
      break;
    }
    case 4: {
      const size_t begin = csv.rfind('\n', at);
      const size_t line = begin == std::string::npos ? 0 : begin + 1;
      const size_t stop = csv.find('\n', line);
      csv.insert(line, csv.substr(line, stop == std::string::npos
                                            ? std::string::npos
                                            : stop - line + 1));
      break;
    }
    default:
      csv.resize(at);
  }
  return csv;
}

TEST(BoundaryFuzzTest, CsvParserAndDriversOnMutatedText) {
  Rng rng(0xc5f);
  const std::vector<std::string> seeds = {
      "t,cell\n1,0\n2,1\n3,5\n4,6\n5,10\n",
      "t,x_km,y_km\n1,0.5,0.5\n2,1.5,0.5\n3,1.5,1.5\n4,-3,9e9\n",
      "t,cell\r\n1, 3\r\n\r\n2,2\r\n",
  };
  Tally tally;
  int parsed = 0;
  for (int c = 0; c < 2500; ++c) {
    std::string csv = Pick(seeds, rng);
    for (uint64_t k = 1 + rng.NextBelow(4); k > 0; --k) csv = Mutate(csv, rng);
    const int side = 1 + static_cast<int>(rng.NextBelow(4));
    const geo::Grid grid(side, side,
                         Pick(std::vector<double>{1.0, 1e-300, 1e300}, rng));
    const Result<geo::Trajectory> truth = io::ParseTrajectoryCsv(csv, grid);
    ++tally.cases;
    if (!truth.ok()) {
      EXPECT_FALSE(truth.error().message.empty());
      continue;
    }
    ++parsed;
    for (int t = 1; t <= truth->length(); ++t) {
      EXPECT_TRUE(grid.ContainsCell(truth->At(t)));
    }
    // Every eighth parsed trajectory of at most 6 steps also runs.
    if (parsed % 8 != 0 || truth->length() > 6) continue;
    Inputs in;
    in.width = side;
    in.height = side;
    in.cell_km = grid.cell_size_km();
    in.cells = {0};
    in.start = 1;
    in.end = truth->length();
    in.options.epsilon = 0.5;
    if (!RulesAccept(in, tally) ||
        !core::ValidateEventWindow(truth->length(), in.end).ok()) {
      continue;
    }
    RunDrivers(in, *truth, tally);
  }
  EXPECT_GT(parsed, 0);
  std::printf("csv cases: %d, parsed: %d, runs: %d, typed errors: %d\n",
              tally.cases, parsed, tally.runs, tally.run_errors);
}

}  // namespace
}  // namespace priste
