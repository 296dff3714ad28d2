#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"

namespace nocsched {
namespace {

TEST(CsvQuote, PlainFieldsUntouched) {
  EXPECT_EQ(csv_quote("abc"), "abc");
  EXPECT_EQ(csv_quote(""), "");
  EXPECT_EQ(csv_quote("1.5"), "1.5");
}

TEST(CsvQuote, QuotesSpecials) {
  EXPECT_EQ(csv_quote("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_quote("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(csv_quote("a\nb"), "\"a\nb\"");
}

TEST(CsvWriter, WritesHeaderImmediately) {
  std::ostringstream out;
  CsvWriter csv(out, {"a", "b"});
  EXPECT_EQ(out.str(), "a,b\n");
}

TEST(CsvWriter, WritesRows) {
  std::ostringstream out;
  CsvWriter csv(out, {"x", "y", "z"});
  csv.row({"1", "two", "3,5"});
  EXPECT_EQ(out.str(), "x,y,z\n1,two,\"3,5\"\n");
}

TEST(CsvWriter, RowOfMixedTypes) {
  std::ostringstream out;
  CsvWriter csv(out, {"name", "count", "time"});
  csv.row_of("d695", 10, std::uint64_t{167290});
  EXPECT_EQ(out.str(), "name,count,time\nd695,10,167290\n");
}

TEST(CsvWriter, RejectsWidthMismatch) {
  std::ostringstream out;
  CsvWriter csv(out, {"a", "b"});
  EXPECT_THROW(csv.row({"only-one"}), Error);
  EXPECT_THROW(csv.row({"1", "2", "3"}), Error);
}

TEST(CsvWriter, RejectsEmptyHeader) {
  std::ostringstream out;
  EXPECT_THROW(CsvWriter(out, {}), Error);
}

}  // namespace
}  // namespace nocsched
