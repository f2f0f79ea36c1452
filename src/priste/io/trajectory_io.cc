#include "priste/io/trajectory_io.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "priste/common/strings.h"
#include "priste/common/thread_annotations.h"

namespace priste::io {
namespace {

// A non-blank CSV line together with its 1-based physical line number, so
// error messages point at the line the user sees in their editor even when
// the file contains blank lines.
struct CsvLine {
  std::string text;
  size_t number = 0;
};

std::vector<CsvLine> SplitLines(const std::string& text) {
  std::vector<CsvLine> lines;
  std::istringstream stream(text);
  std::string line;
  size_t number = 0;
  while (std::getline(stream, line)) {
    ++number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) lines.push_back(CsvLine{line, number});
  }
  return lines;
}

// Splits on commas, trimming only LEADING and TRAILING whitespace of each
// field — whitespace inside a field is preserved so "1 2" is reported as the
// malformed field it is instead of silently collapsing to "12".
std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    const size_t comma = line.find(',', start);
    const size_t end = comma == std::string::npos ? line.size() : comma;
    size_t lo = start, hi = end;
    while (lo < hi && (line[lo] == ' ' || line[lo] == '\t')) ++lo;
    while (hi > lo && (line[hi - 1] == ' ' || line[hi - 1] == '\t')) --hi;
    fields.push_back(line.substr(lo, hi - lo));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return fields;
}

Result<double> ParseDouble(const std::string& field) {
  // The strict common parser: plain finite decimals only. strtod's extras —
  // "inf"/"nan" coordinates, hex-floats like "0x1p3" — are malformed data in
  // a trajectory CSV, not numbers.
  double value = 0.0;
  if (!priste::ParseDouble(field, &value)) {
    return err::InvalidArgument(
        StrFormat("cannot parse number '%s'", field.c_str()));
  }
  return value;
}

// Parses a field that must hold an integer: fractional values are rejected
// instead of silently truncated (t=1.9 used to pass as t=1).
Result<int> ParseInteger(const std::string& field, const char* what) {
  PRISTE_TRY(const double value, ParseDouble(field));
  if (value != std::floor(value)) {
    return err::InvalidArgument(
        StrFormat("%s '%s' is not an integer", what, field.c_str()));
  }
  if (std::fabs(value) > 1e9) {  // guards the int cast below
    return err::InvalidArgument(
        StrFormat("%s '%s' is out of range", what, field.c_str()));
  }
  return static_cast<int>(value);
}

}  // namespace

PRISTE_NO_ABORT
Result<geo::Trajectory> ParseTrajectoryCsv(const std::string& csv,
                                           const geo::Grid& grid) {
  const std::vector<CsvLine> lines = SplitLines(csv);
  if (lines.empty()) return err::InvalidArgument("empty CSV");

  const std::vector<std::string> header = SplitFields(lines[0].text);
  bool discrete;
  if (header.size() == 2 && header[0] == "t" && header[1] == "cell") {
    discrete = true;
  } else if (header.size() == 3 && header[0] == "t" && header[1] == "x_km" &&
             header[2] == "y_km") {
    discrete = false;
  } else {
    return err::InvalidArgument("CSV header must be 't,cell' or 't,x_km,y_km'");
  }

  geo::Trajectory trajectory;
  int expected_t = 1;
  for (size_t i = 1; i < lines.size(); ++i) {
    const size_t lineno = lines[i].number;
    const std::vector<std::string> fields = SplitFields(lines[i].text);
    if (fields.size() != header.size()) {
      return err::InvalidArgument(
          StrFormat("line %zu has %zu fields, expected %zu", lineno,
                    fields.size(), header.size()));
    }
    const Result<int> t_value = ParseInteger(fields[0], "timestamp");
    if (!t_value.ok()) {
      return err::InvalidArgument(StrFormat(
          "line %zu: %s", lineno, t_value.error().message.c_str()));
    }
    if (*t_value != expected_t) {
      return err::InvalidArgument(
          StrFormat("line %zu: timestamp %d out of order (expected %d)", lineno,
                    *t_value, expected_t));
    }
    ++expected_t;

    if (discrete) {
      const Result<int> cell = ParseInteger(fields[1], "cell");
      if (!cell.ok()) {
        return err::InvalidArgument(StrFormat(
            "line %zu: %s", lineno, cell.error().message.c_str()));
      }
      if (!grid.ContainsCell(*cell)) {
        return err::OutOfRange(
            StrFormat("line %zu: cell %d outside the %zu-cell grid", lineno,
                      *cell, grid.num_cells()));
      }
      trajectory.Append(*cell);
    } else {
      const Result<double> x = ParseDouble(fields[1]);
      const Result<double> y = x.ok() ? ParseDouble(fields[2]) : x;
      if (!y.ok()) {
        return err::InvalidArgument(StrFormat(
            "line %zu: %s", lineno, y.error().message.c_str()));
      }
      trajectory.Append(grid.CellContaining(geo::PointKm{*x, *y}));
    }
  }
  if (trajectory.empty()) return err::InvalidArgument("CSV has no data rows");
  return trajectory;
}

std::string TrajectoryToCsv(const geo::Trajectory& trajectory) {
  std::string out = "t,cell\n";
  for (int t = 1; t <= trajectory.length(); ++t) {
    out += StrFormat("%d,%d\n", t, trajectory.At(t));
  }
  return out;
}

std::string RunResultToCsv(const core::RunResult& run,
                           const geo::Trajectory& truth) {
  PRISTE_DCHECK(truth.length() == run.released.length() &&
                run.steps.size() == static_cast<size_t>(truth.length()));
  std::string out =
      "t,true_cell,released_cell,released_budget,halvings,conservative\n";
  for (int t = 1; t <= truth.length(); ++t) {
    const core::StepRecord& step = run.steps[static_cast<size_t>(t - 1)];
    out += StrFormat("%d,%d,%d,%.10g,%d,%d\n", t, truth.At(t),
                     run.released.At(t), step.released_alpha, step.halvings,
                     step.conservative_timeouts);
  }
  return out;
}

PRISTE_NO_ABORT
Result<geo::Trajectory> ReadTrajectoryFile(const std::string& path,
                                           const geo::Grid& grid) {
  PRISTE_TRY(const std::string contents, ReadTextFile(path));
  return ParseTrajectoryCsv(contents, grid);
}

PRISTE_NO_ABORT
Result<void> WriteTextFile(const std::string& path,
                           const std::string& contents) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return err::NotFound(StrFormat("cannot open '%s' for writing: %s",
                                   path.c_str(), std::strerror(errno)));
  }
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), file);
  std::fclose(file);
  if (written != contents.size()) {
    return err::Internal(StrFormat("short write to '%s'", path.c_str()));
  }
  return {};
}

PRISTE_NO_ABORT
Result<std::string> ReadTextFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    return err::NotFound(
        StrFormat("cannot open '%s': %s", path.c_str(), std::strerror(errno)));
  }
  std::string contents;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents.append(buffer, got);
  }
  std::fclose(file);
  return contents;
}

}  // namespace priste::io
