#include "priste/io/trajectory_io.h"

#include <cstdio>

#include <gtest/gtest.h>

namespace priste::io {
namespace {

const geo::Grid kGrid(4, 4, 1.0);

TEST(TrajectoryIoTest, ParsesDiscreteCsv) {
  const auto traj = ParseTrajectoryCsv("t,cell\n1,0\n2,5\n3,15\n", kGrid);
  ASSERT_TRUE(traj.ok()) << traj.status();
  EXPECT_EQ(traj->length(), 3);
  EXPECT_EQ(traj->At(2), 5);
}

TEST(TrajectoryIoTest, ParsesContinuousCsv) {
  // (0.5, 0.5) is the center of cell 0; (3.5, 3.5) of cell 15.
  const auto traj =
      ParseTrajectoryCsv("t,x_km,y_km\n1,0.5,0.5\n2,3.5,3.5\n", kGrid);
  ASSERT_TRUE(traj.ok()) << traj.status();
  EXPECT_EQ(traj->At(1), 0);
  EXPECT_EQ(traj->At(2), 15);
}

TEST(TrajectoryIoTest, FarOffContinuousPointsLandOnTheNearestEdgeCell) {
  // Coordinates past the int range clamp like any other off-map point.
  const auto traj = ParseTrajectoryCsv(
      "t,x_km,y_km\n1,1e10,0.5\n2,0.5,3e9\n3,-1e10,2.5\n", kGrid);
  ASSERT_TRUE(traj.ok()) << traj.status();
  EXPECT_EQ(traj->At(1), kGrid.CellOf(3, 0));
  EXPECT_EQ(traj->At(2), kGrid.CellOf(0, 3));
  EXPECT_EQ(traj->At(3), kGrid.CellOf(0, 2));
}

TEST(TrajectoryIoTest, HandlesWindowsLineEndingsAndSpaces) {
  const auto traj = ParseTrajectoryCsv("t,cell\r\n1, 3\r\n2,\t4\r\n", kGrid);
  ASSERT_TRUE(traj.ok()) << traj.status();
  EXPECT_EQ(traj->At(1), 3);
  EXPECT_EQ(traj->At(2), 4);
}

TEST(TrajectoryIoTest, RejectsBadInput) {
  EXPECT_FALSE(ParseTrajectoryCsv("", kGrid).ok());
  EXPECT_FALSE(ParseTrajectoryCsv("bogus,header\n1,2\n", kGrid).ok());
  EXPECT_FALSE(ParseTrajectoryCsv("t,cell\n", kGrid).ok());          // no rows
  EXPECT_FALSE(ParseTrajectoryCsv("t,cell\n2,0\n", kGrid).ok());     // t != 1
  EXPECT_FALSE(ParseTrajectoryCsv("t,cell\n1,0\n3,1\n", kGrid).ok());  // gap
  EXPECT_FALSE(ParseTrajectoryCsv("t,cell\n1,99\n", kGrid).ok());    // bad cell
  EXPECT_FALSE(ParseTrajectoryCsv("t,cell\n1,xyz\n", kGrid).ok());   // not a number
  EXPECT_FALSE(ParseTrajectoryCsv("t,cell\n1\n", kGrid).ok());       // field count
}

TEST(TrajectoryIoTest, RejectsFractionalTimestamps) {
  // t=1.9 used to be silently truncated to t=1 and accepted.
  const auto fractional = ParseTrajectoryCsv("t,cell\n1.9,0\n", kGrid);
  ASSERT_FALSE(fractional.ok());
  EXPECT_NE(fractional.error().message.find("timestamp"), std::string::npos)
      << fractional.status();
  EXPECT_FALSE(ParseTrajectoryCsv("t,cell\n1,0\n2.5,1\n", kGrid).ok());
  // Integral-valued forms such as "2.0" remain accepted.
  const auto integral = ParseTrajectoryCsv("t,cell\n1,0\n2.0,1\n", kGrid);
  ASSERT_TRUE(integral.ok()) << integral.status();
  EXPECT_EQ(integral->length(), 2);
}

TEST(TrajectoryIoTest, RejectsFractionalCells) {
  const auto fractional = ParseTrajectoryCsv("t,cell\n1,3.7\n", kGrid);
  ASSERT_FALSE(fractional.ok());
  EXPECT_NE(fractional.error().message.find("cell"), std::string::npos)
      << fractional.status();
}

TEST(TrajectoryIoTest, RejectsNonFiniteAndHexCoordinates) {
  // strtod happily parses all of these; as CSV *data* they are malformed.
  // "inf" coordinates used to clamp to the far border cell silently.
  EXPECT_FALSE(ParseTrajectoryCsv("t,x_km,y_km\n1,inf,0.5\n", kGrid).ok());
  EXPECT_FALSE(ParseTrajectoryCsv("t,x_km,y_km\n1,0.5,-inf\n", kGrid).ok());
  EXPECT_FALSE(ParseTrajectoryCsv("t,x_km,y_km\n1,nan,0.5\n", kGrid).ok());
  EXPECT_FALSE(ParseTrajectoryCsv("t,x_km,y_km\n1,0x1p3,0.5\n", kGrid).ok());
  EXPECT_FALSE(ParseTrajectoryCsv("t,x_km,y_km\n1,0x10,0.5\n", kGrid).ok());
  const auto bad = ParseTrajectoryCsv("t,x_km,y_km\n1,infinity,0.5\n", kGrid);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("infinity"), std::string::npos)
      << bad.status();
  // Ordinary scientific notation stays accepted.
  const auto sci = ParseTrajectoryCsv("t,x_km,y_km\n1,5e-1,5E-1\n", kGrid);
  ASSERT_TRUE(sci.ok()) << sci.status();
  EXPECT_EQ(sci->At(1), 0);
}

TEST(TrajectoryIoTest, RejectsOutOfRangeTimestamps) {
  // Integral but beyond the int range (e.g. an epoch timestamp): reported as
  // out of range, not "not an integer".
  const auto epoch = ParseTrajectoryCsv("t,cell\n1753516800,0\n", kGrid);
  ASSERT_FALSE(epoch.ok());
  EXPECT_NE(epoch.error().message.find("out of range"), std::string::npos)
      << epoch.status();
}

TEST(TrajectoryIoTest, ErrorsReportPhysicalLineNumbers) {
  // Blank lines used to be dropped before numbering, shifting every reported
  // row. The bad cell below sits on physical line 5 of the file.
  const auto bad = ParseTrajectoryCsv("t,cell\n1,0\n\n\n2,99\n", kGrid);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("line 5"), std::string::npos)
      << bad.status();
  // Blank lines themselves stay harmless.
  const auto blank_ok = ParseTrajectoryCsv("t,cell\n\n1,0\n\n2,1\n", kGrid);
  ASSERT_TRUE(blank_ok.ok()) << blank_ok.status();
  EXPECT_EQ(blank_ok->length(), 2);
  // Continuous-format coordinate errors carry line numbers too.
  const auto bad_xy =
      ParseTrajectoryCsv("t,x_km,y_km\n1,0.5,0.5\n\n2,abc,0.5\n", kGrid);
  ASSERT_FALSE(bad_xy.ok());
  EXPECT_NE(bad_xy.error().message.find("line 4"), std::string::npos)
      << bad_xy.status();
}

TEST(TrajectoryIoTest, WhitespaceInsideFieldIsMalformed) {
  // "1 2" used to collapse to cell 12; interior whitespace must now fail.
  const auto bad = ParseTrajectoryCsv("t,cell\n1,1 2\n", kGrid);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("1 2"), std::string::npos)
      << bad.status();
  EXPECT_FALSE(ParseTrajectoryCsv("t,cell\n1 1,2\n", kGrid).ok());
  // Leading/trailing whitespace is still trimmed.
  const auto ok = ParseTrajectoryCsv("t,cell\n 1 ,\t3 \n", kGrid);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->At(1), 3);
}

TEST(TrajectoryIoTest, RoundTrip) {
  const geo::Trajectory original({3, 7, 11, 2});
  const auto parsed = ParseTrajectoryCsv(TrajectoryToCsv(original), kGrid);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->states(), original.states());
}

TEST(TrajectoryIoTest, RunResultCsvHasAllSteps) {
  const geo::Trajectory truth({1, 2});
  core::RunResult run;
  run.released = geo::Trajectory({2, 3});
  for (int t = 1; t <= 2; ++t) {
    core::StepRecord step;
    step.released_alpha = 0.25;
    run.steps.push_back(step);
  }
  const std::string csv = RunResultToCsv(run, truth);
  EXPECT_NE(csv.find("t,true_cell,released_cell"), std::string::npos);
  EXPECT_NE(csv.find("1,1,2,0.25,0,0"), std::string::npos);
  EXPECT_NE(csv.find("2,2,3,0.25,0,0"), std::string::npos);
}

TEST(TrajectoryIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/priste_io_test.csv";
  const geo::Trajectory original({0, 1, 2});
  ASSERT_TRUE(WriteTextFile(path, TrajectoryToCsv(original)).ok());
  const auto loaded = ReadTrajectoryFile(path, kGrid);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->states(), original.states());
  std::remove(path.c_str());
}

TEST(TrajectoryIoTest, MissingFileIsNotFound) {
  const auto missing = ReadTrajectoryFile("/nonexistent/priste.csv", kGrid);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, StatusCode::kNotFound);
}

TEST(TrajectoryIoTest, MalformedInputYieldsTypedErrorNotAbort) {
  // The serving-boundary contract (PRISTE_NO_ABORT): every malformed input
  // comes back as a typed Error whose message names the offending field —
  // the process must never terminate.
  const Result<geo::Trajectory> bad_cell =
      ParseTrajectoryCsv("t,cell\n1,xyz\n", kGrid);
  ASSERT_FALSE(bad_cell.ok());
  EXPECT_EQ(bad_cell.error().code, StatusCode::kInvalidArgument);
  EXPECT_NE(bad_cell.error().message.find("xyz"), std::string::npos)
      << bad_cell.error();

  const Result<geo::Trajectory> out_of_grid =
      ParseTrajectoryCsv("t,cell\n1,99\n", kGrid);
  ASSERT_FALSE(out_of_grid.ok());
  EXPECT_EQ(out_of_grid.error().code, StatusCode::kOutOfRange);
  EXPECT_NE(out_of_grid.error().message.find("99"), std::string::npos)
      << out_of_grid.error();

  const Result<void> bad_write = WriteTextFile("/nonexistent/dir/x.csv", "x");
  ASSERT_FALSE(bad_write.ok());
  EXPECT_EQ(bad_write.error().code, StatusCode::kNotFound);
  EXPECT_NE(bad_write.error().message.find("/nonexistent/dir/x.csv"),
            std::string::npos)
      << bad_write.error();
}

}  // namespace
}  // namespace priste::io
