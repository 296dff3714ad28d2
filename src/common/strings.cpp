#include "common/strings.hpp"

#include <cctype>
#include <charconv>

#include "common/error.hpp"

namespace nocsched {

namespace {
bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }
}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t b = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(b, i - b));
      b = i + 1;
    }
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::uint64_t parse_u64(std::string_view s, std::string_view what) {
  s = trim(s);
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  ensure(ec == std::errc() && ptr == s.data() + s.size() && !s.empty(),
         "expected a non-negative integer for ", what, ", got '", std::string(s), "'");
  return v;
}

double parse_double(std::string_view s, std::string_view what) {
  s = trim(s);
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  ensure(ec == std::errc() && ptr == s.data() + s.size() && !s.empty(),
         "expected a number for ", what, ", got '", std::string(s), "'");
  return v;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string with_commas(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t n = digits.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && (n - i) % 3 == 0) out += ',';
    out += digits[i];
  }
  return out;
}

}  // namespace nocsched
