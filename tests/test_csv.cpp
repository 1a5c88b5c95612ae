#include "support/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace pacga::support {
namespace {

TEST(CsvWriter, PlainRow) {
  std::ostringstream out;
  CsvWriter w(out);
  w.row({"a", "b", "c"});
  EXPECT_EQ(out.str(), "a,b,c\n");
}

TEST(CsvWriter, QuotesSpecialCharacters) {
  std::ostringstream out;
  CsvWriter w(out);
  w.row({"has,comma", "has\"quote", "has\nnewline", "plain"});
  EXPECT_EQ(out.str(), "\"has,comma\",\"has\"\"quote\",\"has\nnewline\",plain\n");
}

TEST(CsvWriter, DoubleFieldRoundTrips) {
  const std::string f = CsvWriter::field(0.1);
  EXPECT_DOUBLE_EQ(std::stod(f), 0.1);
}

TEST(ConsoleTable, AlignsColumns) {
  ConsoleTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  // Header, rule, two rows.
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  int lines = 0;
  for (char c : s) lines += (c == '\n');
  EXPECT_EQ(lines, 4);
}

TEST(ConsoleTable, ShortRowsArePadded) {
  ConsoleTable t({"a", "b", "c"});
  t.add_row({"only-one"});
  std::ostringstream out;
  t.print(out);  // must not crash; missing cells become empty
  EXPECT_EQ(t.rows(), 1u);
}

TEST(ConsoleTable, CsvExportMatchesContent) {
  ConsoleTable t({"h1", "h2"});
  t.add_row({"v1", "v2"});
  std::ostringstream out;
  t.print_csv(out);
  EXPECT_EQ(out.str(), "h1,h2\nv1,v2\n");
}

TEST(FormatNumber, SmallUsesFixed) {
  EXPECT_EQ(format_number(5240.1, 6), "5240.1");
}

TEST(FormatNumber, LargeUsesScientific) {
  const std::string s = format_number(7752349.4, 6);
  EXPECT_NE(s.find('e'), std::string::npos);
}

TEST(FormatNumber, Zero) { EXPECT_EQ(format_number(0.0), "0"); }

}  // namespace
}  // namespace pacga::support
