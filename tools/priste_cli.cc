// priste_cli — run the PriSTE release pipeline from the command line.
//
// Reads a true trajectory from CSV, protects one PRESENCE event with
// Algorithm 2 (geo-indistinguishability) or Algorithm 3 (δ-location set),
// and writes the released sequence plus per-step calibration records to CSV.
//
// Usage:
//   priste_cli --input traj.csv --output run.csv
//              [--grid 16x16] [--cell-km 1.0] [--sigma 1.0]
//              [--event-cells 0,1,2] [--event-window 3:5]
//              [--epsilon 0.5] [--alpha 0.5]
//              [--delta 0.2]            (switches to Algorithm 3)
//              [--seed 7]
//              [--metrics]              (dump runtime metrics to stdout)
//
// The mobility model is the Gaussian-kernel synthetic chain (--sigma); for
// trained chains use the library API directly.
//
// Flag values are parsed STRICTLY (common/strings.h): "8xfoo", "1.5z",
// "inf", or "0x10" exit non-zero naming the offending flag instead of the
// old atoi/atof behaviour of silently truncating to a prefix or zero.
// Parsed values are range-checked too: "--grid 0x4", "--sigma 0",
// "--epsilon -1" or "--delta 1.5" exits through the usage path instead of
// tripping a constructor's CHECK.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "priste/common/metrics.h"
#include "priste/common/strings.h"
#include "priste/common/thread_annotations.h"
#include "priste/core/priste_delta_loc.h"
#include "priste/core/priste_geo_ind.h"
#include "priste/event/presence.h"
#include "priste/geo/gaussian_grid_model.h"
#include "priste/io/trajectory_io.h"

namespace {

using namespace priste;

struct CliArgs {
  std::string input;
  std::string output;
  int grid_w = 16;
  int grid_h = 16;
  double cell_km = 1.0;
  double sigma = 1.0;
  std::vector<int> event_cells = {0, 1, 2, 3};
  int window_start = 3;
  int window_end = 5;
  double epsilon = 0.5;
  double alpha = 0.5;
  double delta = -1.0;  // < 0 (not given): Algorithm 2
  uint64_t seed = 7;
  bool metrics = false;
};

// Strict parse helpers: each names the offending flag and value on stderr,
// so "--grid 8xfoo" fails loudly instead of running on a truncated grid.
// All of them sit on the serving boundary and are PRISTE_NO_ABORT: malformed
// flags exit through main's usage path, never a CHECK.
PRISTE_NO_ABORT
bool ParseDoubleFlag(const std::string& flag, const std::string& value,
                     double* out) {
  if (!ParseDouble(value, out)) {
    std::fprintf(stderr, "%s: cannot parse '%s' as a finite number\n",
                 flag.c_str(), value.c_str());
    return false;
  }
  return true;
}

PRISTE_NO_ABORT
bool ParseIntFlag(const std::string& flag, const std::string& value, int* out) {
  if (!ParseInt32(value, out)) {
    std::fprintf(stderr, "%s: cannot parse '%s' as a non-negative integer\n",
                 flag.c_str(), value.c_str());
    return false;
  }
  return true;
}

PRISTE_NO_ABORT
bool ParseIntPair(const std::string& flag, const std::string& value, char sep,
                  int* a, int* b) {
  const size_t pos = value.find(sep);
  if (pos == std::string::npos) {
    std::fprintf(stderr, "%s: expected two integers separated by '%c', got '%s'\n",
                 flag.c_str(), sep, value.c_str());
    return false;
  }
  return ParseIntFlag(flag, value.substr(0, pos), a) &&
         ParseIntFlag(flag, value.substr(pos + 1), b);
}

PRISTE_NO_ABORT
bool ParseIntList(const std::string& flag, const std::string& value,
                  std::vector<int>* out) {
  out->clear();
  std::string current;
  const auto flush = [&]() {
    int parsed = 0;
    if (!ParseIntFlag(flag, current, &parsed)) return false;
    out->push_back(parsed);
    current.clear();
    return true;
  };
  for (char c : value) {
    if (c == ',') {
      if (!flush()) return false;
    } else {
      current += c;
    }
  }
  return current.empty() ? true : flush();
}

PRISTE_NO_ABORT
bool OutOfRange(const std::string& flag, const char* requirement) {
  std::fprintf(stderr, "%s: value out of range; %s\n", flag.c_str(),
               requirement);
  return false;
}

PRISTE_NO_ABORT
bool ParseArgs(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (flag == "--input" && (value = next())) {
      args->input = value;
    } else if (flag == "--output" && (value = next())) {
      args->output = value;
    } else if (flag == "--grid" && (value = next())) {
      if (!ParseIntPair(flag, value, 'x', &args->grid_w, &args->grid_h)) {
        return false;
      }
      if (args->grid_w < 1 || args->grid_h < 1) {
        return OutOfRange(flag, "both grid sides must be >= 1");
      }
    } else if (flag == "--cell-km" && (value = next())) {
      if (!ParseDoubleFlag(flag, value, &args->cell_km)) return false;
      if (args->cell_km <= 0.0) return OutOfRange(flag, "must be > 0");
    } else if (flag == "--sigma" && (value = next())) {
      if (!ParseDoubleFlag(flag, value, &args->sigma)) return false;
      if (args->sigma <= 0.0) return OutOfRange(flag, "must be > 0");
    } else if (flag == "--event-cells" && (value = next())) {
      if (!ParseIntList(flag, value, &args->event_cells)) return false;
      if (args->event_cells.empty()) {
        return OutOfRange(flag, "must name at least one cell");
      }
    } else if (flag == "--event-window" && (value = next())) {
      if (!ParseIntPair(flag, value, ':', &args->window_start,
                        &args->window_end)) {
        return false;
      }
      if (args->window_start < 1 || args->window_start > args->window_end) {
        return OutOfRange(flag, "need 1 <= start <= end");
      }
    } else if (flag == "--epsilon" && (value = next())) {
      if (!ParseDoubleFlag(flag, value, &args->epsilon)) return false;
      if (args->epsilon < 0.0) return OutOfRange(flag, "must be >= 0");
    } else if (flag == "--alpha" && (value = next())) {
      if (!ParseDoubleFlag(flag, value, &args->alpha)) return false;
      if (args->alpha < 0.0) return OutOfRange(flag, "must be >= 0");
    } else if (flag == "--delta" && (value = next())) {
      if (!ParseDoubleFlag(flag, value, &args->delta)) return false;
      if (args->delta < 0.0 || args->delta >= 1.0) {
        return OutOfRange(flag, "must be in [0, 1)");
      }
    } else if (flag == "--seed" && (value = next())) {
      if (!ParseUint64(value, &args->seed)) {
        std::fprintf(stderr, "--seed: cannot parse '%s' as an unsigned integer\n",
                     value);
        return false;
      }
    } else if (flag == "--metrics") {
      args->metrics = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", flag.c_str());
      return false;
    }
  }
  return !args->input.empty() && !args->output.empty();
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: priste_cli --input traj.csv --output run.csv "
                 "[--grid WxH] [--cell-km K] [--sigma S] "
                 "[--event-cells a,b,c] [--event-window s:e] "
                 "[--epsilon E] [--alpha A] [--delta D] [--seed N] "
                 "[--metrics]\n");
    return 2;
  }

  const geo::Grid grid(args.grid_w, args.grid_h, args.cell_km);
  const auto trajectory = io::ReadTrajectoryFile(args.input, grid);
  if (!trajectory.ok()) {
    std::fprintf(stderr, "input: %s\n", trajectory.error().ToString().c_str());
    return 1;
  }
  // The event and its two-world model keep state per window timestamp, so
  // a window past the trajectory's end is refused before either is built.
  const Result<void> window =
      core::ValidateEventWindow(trajectory->length(), args.window_end);
  if (!window.ok()) {
    std::fprintf(stderr, "run: %s\n", window.error().ToString().c_str());
    return 1;
  }

  geo::Region region(grid.num_cells());
  for (int c : args.event_cells) {
    if (!grid.ContainsCell(c)) {
      std::fprintf(stderr, "event cell %d outside the grid\n", c);
      return 1;
    }
    region.Add(c);
  }
  const auto event = std::make_shared<event::PresenceEvent>(
      region, args.window_start, args.window_end);

  const geo::GaussianGridModel mobility(grid, args.sigma);
  core::PristeOptions options;
  options.epsilon = args.epsilon;
  options.initial_alpha = args.alpha;

  Rng rng(args.seed);
  Result<core::RunResult> result = [&]() -> Result<core::RunResult> {
    if (args.delta >= 0.0) {
      const core::PristeDeltaLoc priste(
          grid, mobility.transition(), {event}, args.delta,
          linalg::Vector::UniformProbability(grid.num_cells()), options);
      return priste.Run(*trajectory, rng);
    }
    const core::PristeGeoInd priste(grid, mobility.transition(), {event},
                                    options);
    return priste.Run(*trajectory, rng);
  }();
  if (!result.ok()) {
    std::fprintf(stderr, "run: %s\n", result.error().ToString().c_str());
    return 1;
  }

  const Result<void> write =
      io::WriteTextFile(args.output, io::RunResultToCsv(*result, *trajectory));
  if (!write.ok()) {
    std::fprintf(stderr, "output: %s\n", write.error().ToString().c_str());
    return 1;
  }
  std::printf("protected %s; released %d locations -> %s (%d conservative)\n",
              event->ToString().c_str(), result->released.length(),
              args.output.c_str(), result->total_conservative);
  if (args.metrics) {
    std::printf("--- runtime metrics ---\n%s",
                MetricsRegistry::Global().Render().c_str());
  }
  return 0;
}
