#include "priste/eval/table_printer.h"

#include <algorithm>

#include "priste/common/check.h"

namespace priste::eval {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  PRISTE_CHECK(!headers_.empty());
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  PRISTE_CHECK_MSG(row.size() == headers_.size(), "row width != header width");
  rows_.push_back(std::move(row));
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      os << row[c] << std::string(widths[c] - row[c].size() + 2, ' ');
    }
    os << "\n";
  };
  print_row(headers_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) print_row(row);
}

}  // namespace priste::eval
