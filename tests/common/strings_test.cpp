#include "common/strings.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace nocsched {
namespace {

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("\t x \n"), "x");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Split, KeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Split, NoDelimiter) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("leon_1", "leon"));
  EXPECT_FALSE(starts_with("leo", "leon"));
  EXPECT_TRUE(starts_with("x", ""));
  EXPECT_FALSE(starts_with("", "x"));
}

TEST(ParseU64, ParsesPlainIntegers) {
  EXPECT_EQ(parse_u64("0", "f"), 0u);
  EXPECT_EQ(parse_u64("  1234 ", "f"), 1234u);
  EXPECT_EQ(parse_u64("18446744073709551615", "f"), UINT64_MAX);
}

TEST(ParseU64, RejectsJunk) {
  EXPECT_THROW((void)parse_u64("", "f"), Error);
  EXPECT_THROW((void)parse_u64("12x", "f"), Error);
  EXPECT_THROW((void)parse_u64("-3", "f"), Error);
  EXPECT_THROW((void)parse_u64("1.5", "f"), Error);
  EXPECT_THROW((void)parse_u64("18446744073709551616", "f"), Error);  // overflow
}

TEST(ParseU64, ErrorNamesField) {
  try {
    (void)parse_u64("oops", "Patterns");
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("Patterns"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("oops"), std::string::npos);
  }
}

TEST(ParseDouble, ParsesNumbers) {
  EXPECT_DOUBLE_EQ(parse_double("2.5", "f"), 2.5);
  EXPECT_DOUBLE_EQ(parse_double(" -1e3 ", "f"), -1000.0);
  EXPECT_DOUBLE_EQ(parse_double("660", "f"), 660.0);
}

TEST(ParseDouble, RejectsJunk) {
  EXPECT_THROW((void)parse_double("", "f"), Error);
  EXPECT_THROW((void)parse_double("1.2.3", "f"), Error);
  EXPECT_THROW((void)parse_double("abc", "f"), Error);
}

TEST(Join, JoinsWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({"solo"}, ","), "solo");
  EXPECT_EQ(join({}, ","), "");
}

TEST(WithCommas, GroupsThousands) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(1000000000ull), "1,000,000,000");
}

}  // namespace
}  // namespace nocsched
