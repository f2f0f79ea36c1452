#include "priste/eval/table_printer.h"

#include <sstream>

#include <gtest/gtest.h>

namespace priste::eval {
namespace {

TEST(TablePrinterTest, PrintsAlignedColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", "0.5"});
  table.AddRow({"x", "123456"});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("123456"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

}  // namespace
}  // namespace priste::eval
