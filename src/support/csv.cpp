#include "support/csv.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace pacga::support {

namespace {

bool needs_quoting(const std::string& f) {
  return f.find_first_of(",\"\n") != std::string::npos;
}

std::string quote(const std::string& f) {
  std::string out = "\"";
  for (char c : f) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void CsvWriter::row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << (needs_quoting(fields[i]) ? quote(fields[i]) : fields[i]);
  }
  out_ << '\n';
}

std::string CsvWriter::field(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

ConsoleTable::ConsoleTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void ConsoleTable::add_row(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

void ConsoleTable::print(std::ostream& out) const {
  std::vector<std::size_t> width(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c)
    width[c] = header_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c)
      width[c] = std::max(width[c], r[c].size());

  auto print_row = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < header_.size(); ++c) {
      out << (c == 0 ? "| " : " | ");
      const std::string& cell = c < r.size() ? r[c] : std::string();
      out << cell << std::string(width[c] - cell.size(), ' ');
    }
    out << " |\n";
  };

  print_row(header_);
  out << '|';
  for (std::size_t c = 0; c < header_.size(); ++c)
    out << std::string(width[c] + 2, '-') << '|';
  out << '\n';
  for (const auto& r : rows_) print_row(r);
}

void ConsoleTable::print_csv(std::ostream& out) const {
  CsvWriter w(out);
  w.row(header_);
  for (const auto& r : rows_) w.row(r);
}

std::string format_number(double v, int digits) {
  char buf[64];
  const double a = std::abs(v);
  if (a != 0.0 && (a >= 1e7 || a < 1e-3)) {
    std::snprintf(buf, sizeof(buf), "%.*e", digits - 1, v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  }
  return buf;
}

}  // namespace pacga::support
