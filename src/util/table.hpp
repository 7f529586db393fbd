// ASCII table and CSV emission for figure/table reproduction output.
//
// Every bench binary prints its series both as an aligned ASCII table (for
// reading in the terminal) and optionally as CSV (for plotting). Rows are
// strings; numeric columns are pre-formatted by the caller so the table stays
// agnostic about units.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace gcr {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends one row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given number of decimals.
  static std::string num(double value, int decimals = 2);
  static std::string num(std::int64_t value);

  /// Writes an aligned, boxed ASCII rendering.
  void print(std::ostream& os) const;

  /// Writes RFC-4180-ish CSV (quotes cells containing commas/quotes).
  void print_csv(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace gcr
