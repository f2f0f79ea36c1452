// Smoke test for tools/priste_cli: runs the binary on a tiny generated CSV
// trajectory and checks the released output CSV round-trips through
// io/trajectory_io. The binary path arrives via PRISTE_CLI_BIN, set by CTest.
#include <sys/wait.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "priste/geo/grid.h"
#include "priste/geo/trajectory.h"
#include "priste/io/trajectory_io.h"

namespace priste {
namespace {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  fields.push_back(current);
  return fields;
}

TEST(CliSmokeTest, ReleasedOutputRoundTripsThroughTrajectoryIo) {
  const char* cli_bin = std::getenv("PRISTE_CLI_BIN");
  ASSERT_NE(cli_bin, nullptr)
      << "PRISTE_CLI_BIN must point at the priste_cli binary";

  const geo::Grid grid(4, 4, 1.0);

  // A tiny 8-step walk through the 4x4 grid, serialized via the library so
  // the input is by construction in the canonical discrete format.
  geo::Trajectory input;
  for (int cell : {0, 1, 2, 6, 5, 9, 10, 14}) input.Append(cell);
  const std::string input_csv = io::TrajectoryToCsv(input);
  const std::string input_path = "cli_smoke_input.csv";
  const std::string output_path = "cli_smoke_output.csv";
  ASSERT_TRUE(io::WriteTextFile(input_path, input_csv).ok());

  const std::string command = std::string(cli_bin) +
                              " --input " + input_path +
                              " --output " + output_path +
                              " --grid 4x4 --epsilon 0.8 --seed 7";
  ASSERT_EQ(std::system(command.c_str()), 0) << "command: " << command;

  const auto output_csv = io::ReadTextFile(output_path);
  ASSERT_TRUE(output_csv.ok()) << output_csv.status().ToString();

  // Parse the run CSV: header + one row per timestamp with the true cell in
  // column 1 and the released cell in column 2.
  std::vector<std::string> lines;
  {
    std::string line;
    for (char c : *output_csv) {
      if (c == '\n') {
        if (!line.empty()) lines.push_back(line);
        line.clear();
      } else {
        line += c;
      }
    }
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), static_cast<size_t>(input.length()) + 1);
  EXPECT_EQ(lines[0],
            "t,true_cell,released_cell,released_budget,halvings,conservative");

  geo::Trajectory released;
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::vector<std::string> fields = SplitCsvLine(lines[i]);
    ASSERT_EQ(fields.size(), 6u) << lines[i];
    EXPECT_EQ(std::atoi(fields[0].c_str()), static_cast<int>(i));
    EXPECT_EQ(std::atoi(fields[1].c_str()), input.At(static_cast<int>(i)));
    const int released_cell = std::atoi(fields[2].c_str());
    ASSERT_TRUE(grid.ContainsCell(released_cell)) << lines[i];
    released.Append(released_cell);
  }

  // Round-trip the released sequence through the trajectory CSV codec.
  const std::string released_csv = io::TrajectoryToCsv(released);
  const auto reparsed = io::ParseTrajectoryCsv(released_csv, grid);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->length(), released.length());
  for (int t = 1; t <= released.length(); ++t) {
    EXPECT_EQ(reparsed->At(t), released.At(t));
  }
  EXPECT_EQ(io::TrajectoryToCsv(*reparsed), released_csv);
}

TEST(CliSmokeTest, RejectsMissingInputFile) {
  const char* cli_bin = std::getenv("PRISTE_CLI_BIN");
  ASSERT_NE(cli_bin, nullptr);
  const std::string command = std::string(cli_bin) +
                              " --input cli_smoke_does_not_exist.csv"
                              " --output cli_smoke_unused.csv 2>/dev/null";
  EXPECT_NE(std::system(command.c_str()), 0);
}

TEST(CliSmokeTest, MalformedFlagValuesExitNonZero) {
  const char* cli_bin = std::getenv("PRISTE_CLI_BIN");
  ASSERT_NE(cli_bin, nullptr);
  // Every row names both required files, so only the flag value under test
  // can fail the parse; the input file does not exist, so a row that parses
  // exits 1 instead. A malformed or out-of-range value must be a usage error
  // (exit status 2) whose message names the flag: never a run on a
  // truncated value, never a CHECK abort. The grid sizes are refused before
  // any m×m matrix is allocated (100000x1 died of std::bad_alloc under
  // `ulimit -v 4000000`, and 50000x50000 of std::length_error).
  const std::string files =
      " --input cli_smoke_does_not_exist.csv --output cli_smoke_unused.csv";
  const std::string stderr_path = "cli_smoke_flag_stderr.txt";
  const auto run = [&](const std::string& flags) {
    const std::string command =
        std::string(cli_bin) + " " + flags + files + " 2> " + stderr_path;
    return std::system(command.c_str());
  };
  const std::vector<std::string> bad_flags = {
      "--grid 8xfoo",         "--grid x8",
      "--alpha 1.5z",         "--epsilon abc",
      "--epsilon inf",        "--seed -1",
      "--event-window 2:bad", "--event-cells 1,x,3",
      "--grid 0x4",           "--grid 4x0",
      "--cell-km 0",          "--cell-km -1",
      "--sigma 0",            "--sigma -1",
      "--event-window 5:3",   "--event-window 0:3",
      "--alpha -2",           "--delta 1.5",
      "--delta -0.3",         "--event-cells ''",
      "--epsilon -1",         "--grid 100000x1",
      "--grid 50000x50000",   "--event-cells 999",
  };
  for (const std::string& flags : bad_flags) {
    const int rc = run(flags);
    EXPECT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 2)
        << "flags: " << flags << " rc=" << rc;
    const auto diagnostic = io::ReadTextFile(stderr_path);
    ASSERT_TRUE(diagnostic.ok()) << diagnostic.status().ToString();
    const std::string flag = flags.substr(0, flags.find(' '));
    EXPECT_NE(diagnostic->find(flag + ":"), std::string::npos)
        << "flags: " << flags << " stderr: " << *diagnostic;
  }

  // Control: valid flags at the edges of each range parse, and the run
  // fails only on the missing input file.
  const int rc = run(
      "--grid 1x1 --cell-km 0.5 --sigma 2 --event-cells 0 "
      "--event-window 1:1 --epsilon 0 --alpha 0 --delta 0");
  EXPECT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 1) << "rc=" << rc;
}

TEST(CliSmokeTest, MalformedCsvExitsNonZeroNamingTheField) {
  const char* cli_bin = std::getenv("PRISTE_CLI_BIN");
  ASSERT_NE(cli_bin, nullptr);

  // A CSV whose second row carries a non-numeric cell: the CLI must exit
  // non-zero with a diagnostic naming the offending field and line — the
  // typed-Error path, not an abort (an abort would exit via SIGABRT and
  // print nothing useful on stderr).
  const std::string input_path = "cli_malformed_input.csv";
  const std::string stderr_path = "cli_malformed_stderr.txt";
  ASSERT_TRUE(io::WriteTextFile(input_path, "t,cell\n1,0\n2,xyz\n").ok());

  const std::string command = std::string(cli_bin) +
                              " --input " + input_path +
                              " --output cli_malformed_unused.csv"
                              " --grid 4x4 2> " + stderr_path;
  const int rc = std::system(command.c_str());
  EXPECT_NE(rc, 0);
  ASSERT_TRUE(WIFEXITED(rc)) << "CLI terminated by signal, not a clean exit";
  EXPECT_EQ(WEXITSTATUS(rc), 1);

  const auto diagnostic = io::ReadTextFile(stderr_path);
  ASSERT_TRUE(diagnostic.ok()) << diagnostic.status().ToString();
  EXPECT_NE(diagnostic->find("xyz"), std::string::npos) << *diagnostic;
  EXPECT_NE(diagnostic->find("line 3"), std::string::npos) << *diagnostic;
}

TEST(CliSmokeTest, HugeAlphaRunsToCompletion) {
  // Any finite --alpha >= 0 parses. At α·cell >= 90 the planar Laplace
  // emission is the identity; from there the halving search must go on down
  // the ladder, never abort in the mechanism's quadrature.
  const char* cli_bin = std::getenv("PRISTE_CLI_BIN");
  ASSERT_NE(cli_bin, nullptr);
  const std::string input_path = "cli_huge_alpha_input.csv";
  const std::string output_path = "cli_huge_alpha_output.csv";
  ASSERT_TRUE(io::WriteTextFile(input_path,
                                "t,cell\n1,0\n2,1\n3,5\n4,6\n5,10\n")
                  .ok());
  const std::string command =
      std::string(cli_bin) + " --input " + input_path + " --output " +
      output_path +
      " --grid 4x4 --event-cells 5,6 --event-window 2:4 --alpha 1e300"
      " > /dev/null";
  const int rc = std::system(command.c_str());
  EXPECT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) == 0)
      << "command: " << command << " rc=" << rc;
  const auto output_csv = io::ReadTextFile(output_path);
  ASSERT_TRUE(output_csv.ok()) << output_csv.status().ToString();
  // The header plus one row per timestamp.
  size_t rows = 0;
  for (const char c : *output_csv) rows += c == '\n' ? 1 : 0;
  EXPECT_EQ(rows, 6u) << *output_csv;
}

TEST(CliSmokeTest, WindowPastTheTrajectoryExitsOneBeforeBuildingTheEvent) {
  // The event keeps one region per window timestamp and its two-world model
  // one indicator per window step, so a window ending far past the five-row
  // trajectory must be refused before either is built (building them ran
  // out of memory), with the run's own message naming the window end.
  const char* cli_bin = std::getenv("PRISTE_CLI_BIN");
  ASSERT_NE(cli_bin, nullptr);
  const std::string input_path = "cli_long_window_input.csv";
  const std::string stderr_path = "cli_long_window_stderr.txt";
  ASSERT_TRUE(io::WriteTextFile(input_path,
                                "t,cell\n1,0\n2,1\n3,5\n4,6\n5,10\n")
                  .ok());
  const std::string command =
      std::string(cli_bin) + " --input " + input_path +
      " --output cli_long_window_unused.csv --grid 4x4 --event-cells 5,6"
      " --event-window 2:2000000000 2> " + stderr_path;
  const int rc = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(rc)) << "CLI terminated by signal, rc=" << rc;
  EXPECT_EQ(WEXITSTATUS(rc), 1);
  const auto diagnostic = io::ReadTextFile(stderr_path);
  ASSERT_TRUE(diagnostic.ok()) << diagnostic.status().ToString();
  EXPECT_NE(diagnostic->find("event window ending at 2000000000"),
            std::string::npos)
      << *diagnostic;
}

TEST(CliSmokeTest, MetricsFlagDumpsRuntimeCounters) {
  const char* cli_bin = std::getenv("PRISTE_CLI_BIN");
  ASSERT_NE(cli_bin, nullptr);

  geo::Trajectory input;
  for (int cell : {0, 1, 2, 6, 5, 9, 10, 14}) input.Append(cell);
  const std::string input_path = "cli_metrics_input.csv";
  const std::string dump_path = "cli_metrics_stdout.txt";
  ASSERT_TRUE(io::WriteTextFile(input_path, io::TrajectoryToCsv(input)).ok());

  const std::string command = std::string(cli_bin) +
                              " --input " + input_path +
                              " --output cli_metrics_output.csv"
                              " --grid 4x4 --epsilon 0.8 --seed 7 --metrics > " +
                              dump_path;
  ASSERT_EQ(std::system(command.c_str()), 0) << "command: " << command;

  const auto dump = io::ReadTextFile(dump_path);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  // The run banner plus the metrics dump: cache counters and the release
  // latency histogram must both be present.
  EXPECT_NE(dump->find("runtime metrics"), std::string::npos) << *dump;
  EXPECT_NE(dump->find("cache.emission.hits"), std::string::npos) << *dump;
  EXPECT_NE(dump->find("release.check_seconds"), std::string::npos) << *dump;
}

}  // namespace
}  // namespace priste
