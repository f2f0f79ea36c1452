#ifndef PRISTE_EVAL_TABLE_PRINTER_H_
#define PRISTE_EVAL_TABLE_PRINTER_H_

#include <ostream>
#include <string>
#include <vector>

namespace priste::eval {

/// Fixed-width console table used by the benchmark harness to print the
/// paper's figure series and table rows.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> row);

  void Print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace priste::eval

#endif  // PRISTE_EVAL_TABLE_PRINTER_H_
