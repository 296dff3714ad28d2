#include "report/json_util.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>

#include "common/rng.hpp"

namespace nocsched::report {
namespace {

/// Reference JSON string decoder for the escapes json_string may emit
/// (quote, backslash, \n, \t, and \uXXXX for other control bytes).
/// Fails the test on anything a strict parser would reject.
std::string json_unescape(const std::string& quoted) {
  EXPECT_GE(quoted.size(), 2u);
  EXPECT_EQ(quoted.front(), '"');
  EXPECT_EQ(quoted.back(), '"');
  const std::string s = quoted.substr(1, quoted.size() - 2);
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    // RFC 8259: unescaped control characters are illegal, and a raw
    // quote would terminate the string early.
    EXPECT_GE(c, 0x20u) << "raw control byte in JSON string";
    EXPECT_NE(c, '"') << "unescaped quote in JSON string";
    if (c != '\\') {
      out += s[i];
      continue;
    }
    if (i + 1 >= s.size()) {
      ADD_FAILURE() << "dangling backslash";
      return out;
    }
    const char esc = s[++i];
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (i + 4 >= s.size()) {
          ADD_FAILURE() << "truncated \\u escape";
          return out;
        }
        const std::string hex = s.substr(i + 1, 4);
        i += 4;
        const long code = std::strtol(hex.c_str(), nullptr, 16);
        EXPECT_GE(code, 0);
        EXPECT_LT(code, 256) << "json_string only escapes single bytes";
        out += static_cast<char>(code);
        break;
      }
      default:
        ADD_FAILURE() << "unexpected escape \\" << esc;
    }
  }
  return out;
}

TEST(JsonString, RoundTripsQuotesBackslashesAndControls) {
  const std::string cases[] = {
      "",
      "plain",
      "with \"quotes\" inside",
      "back\\slash \\\\ twice",
      "newline\nand\ttab",
      std::string("nul\0byte", 8),
      "\x01\x02\x1f\x7f",
      "ends with backslash\\",
      "\"",
      "\\\"tricky\\\"",
  };
  for (const std::string& s : cases) {
    const std::string quoted = json_string(s);
    EXPECT_EQ(json_unescape(quoted), s) << "mis-escaped: " << quoted;
  }
}

TEST(JsonString, RoundTripsNonAsciiBytes) {
  // Module names may carry UTF-8 (or arbitrary vendor bytes); they must
  // pass through byte-exact.
  const std::string utf8 = "cœur_m\xC3\xA9moire_\xE6\xB8\xAC\xE8\xA9\xA6";
  EXPECT_EQ(json_unescape(json_string(utf8)), utf8);
  std::string high;
  for (int b = 0x80; b <= 0xFF; ++b) high += static_cast<char>(b);
  EXPECT_EQ(json_unescape(json_string(high)), high);
}

TEST(JsonString, RoundTripsRandomByteStrings) {
  Rng rng(0x15A);
  for (int trial = 0; trial < 200; ++trial) {
    std::string s;
    const std::uint64_t len = rng.below(64);
    for (std::uint64_t i = 0; i < len; ++i) {
      s += static_cast<char>(rng.below(256));
    }
    const std::string quoted = json_string(s);
    EXPECT_EQ(json_unescape(quoted), s) << "mis-escaped: " << quoted;
  }
}

/// The formatting json_number replaced: a stream at precision 15.
std::string stream_number(double v) {
  std::ostringstream os;
  os << std::setprecision(15) << v;
  return os.str();
}

TEST(JsonNumber, MatchesAStreamAtPrecision15) {
  using limits = std::numeric_limits<double>;
  const double specials[] = {0.0,
                             -0.0,
                             limits::infinity(),
                             -limits::infinity(),
                             limits::quiet_NaN(),
                             -limits::quiet_NaN(),
                             limits::denorm_min(),
                             -limits::denorm_min(),
                             limits::min(),
                             limits::max(),
                             -limits::max(),
                             limits::epsilon(),
                             0.1,
                             1.0 / 3.0,
                             40.0,
                             7700.5,
                             1e15,
                             1e15 - 1,
                             1e15 + 1,
                             999999999999999.0,
                             999999999999999.5,
                             1e16,
                             1e16 + 2,
                             9999999999999998.0,
                             1e-5,
                             1e-4,
                             0.0001234567890123456,
                             123456789012345678.0};
  for (const double v : specials) {
    EXPECT_EQ(json_number(v), stream_number(v)) << std::bit_cast<std::uint64_t>(v);
    EXPECT_EQ(json_number(-v), stream_number(-v)) << std::bit_cast<std::uint64_t>(-v);
  }
  // Random bit patterns cover every exponent (denormals, inf, NaN
  // payloads included); values near powers of ten sit where "%.15g"
  // switches between fixed and exponent form.
  Rng rng(0x7C4A);
  for (int i = 0; i < 20000; ++i) {
    const double bits = std::bit_cast<double>(rng.next_u64());
    EXPECT_EQ(json_number(bits), stream_number(bits)) << std::bit_cast<std::uint64_t>(bits);
    const double decade = std::pow(10.0, static_cast<double>(rng.below(40)) - 20.0);
    const double near = decade * (1.0 - 1e-15 * static_cast<double>(rng.below(16)));
    EXPECT_EQ(json_number(near), stream_number(near)) << std::bit_cast<std::uint64_t>(near);
    const double scaled = rng.uniform01() * decade;
    EXPECT_EQ(json_number(scaled), stream_number(scaled))
        << std::bit_cast<std::uint64_t>(scaled);
  }
}

TEST(JsonNumber, AppendsToTheGivenString) {
  std::string out = "peak=";
  append_json_number(out, 7700.5);
  out += ',';
  append_json_number(out, -0.0);
  EXPECT_EQ(out, "peak=7700.5,-0");
}

}  // namespace
}  // namespace nocsched::report
