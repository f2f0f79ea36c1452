#ifndef PRISTE_IO_TRAJECTORY_IO_H_
#define PRISTE_IO_TRAJECTORY_IO_H_

#include <string>
#include <vector>

#include "priste/common/status.h"
#include "priste/core/priste.h"
#include "priste/geo/grid.h"
#include "priste/geo/trajectory.h"

namespace priste::io {

/// CSV interchange for trajectories and PriSTE run results, so the library
/// can be driven from real GPS exports and its releases consumed by other
/// tooling.
///
/// Trajectory CSV format (header required):
///   t,cell            — discrete form: 1-based timestamp, 0-based cell id
///   t,x_km,y_km       — continuous form: planar km coordinates mapped to
///                       cells via Grid::CellContaining
/// Rows must be sorted by t with consecutive timestamps starting at 1.
/// Timestamps and cell ids must be integral (fractional values are rejected,
/// never truncated); fields are trimmed of leading/trailing whitespace only,
/// so whitespace inside a field is malformed; blank lines are skipped, and
/// error messages cite 1-based physical line numbers.

/// All fallible entry points below sit on the serving boundary: they are
/// annotated PRISTE_NO_ABORT (enforced by tools/lint/priste_lint.py) and
/// return a typed priste::Result instead of terminating on malformed input.

/// Parses a trajectory from CSV text (either format, detected from the
/// header). `grid` validates cell ids and maps coordinates.
Result<geo::Trajectory> ParseTrajectoryCsv(const std::string& csv,
                                           const geo::Grid& grid);

/// Serializes a trajectory in the discrete format.
std::string TrajectoryToCsv(const geo::Trajectory& trajectory);

/// Serializes a PriSTE run of the true trajectory `truth`: one row per
/// timestamp with the true cell, released cell, released budget, halvings
/// and conservative timeouts.
std::string RunResultToCsv(const core::RunResult& run,
                           const geo::Trajectory& truth);

/// File helpers.
Result<geo::Trajectory> ReadTrajectoryFile(const std::string& path,
                                           const geo::Grid& grid);
Result<void> WriteTextFile(const std::string& path,
                           const std::string& contents);
Result<std::string> ReadTextFile(const std::string& path);

}  // namespace priste::io

#endif  // PRISTE_IO_TRAJECTORY_IO_H_
