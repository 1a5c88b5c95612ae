// Table output: CSV files for downstream plotting and aligned console
// tables for the bench binaries that reprint the paper's tables/figures.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace pacga::support {

/// Minimal CSV writer with RFC-4180 quoting.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  /// Writes one row; fields containing commas/quotes/newlines are quoted.
  void row(const std::vector<std::string>& fields);

  /// Convenience: formats doubles with full round-trip precision.
  static std::string field(double v);

 private:
  std::ostream& out_;
};

/// Fixed-layout console table: collects rows, then prints with per-column
/// alignment. Used by every bench binary so the paper-table output is
/// uniform and diffable.
class ConsoleTable {
 public:
  explicit ConsoleTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);
  /// Renders the table with column separators and a header rule.
  void print(std::ostream& out) const;
  /// Renders the same content as CSV (header + rows).
  void print_csv(std::ostream& out) const;

  std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Compact human-friendly number formatting used in table cells:
/// fixed for small magnitudes, scientific beyond 1e7, `digits` significant.
std::string format_number(double v, int digits = 6);

}  // namespace pacga::support
