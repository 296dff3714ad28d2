#pragma once
// Small string utilities used by the benchmark parser and reporters.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nocsched {

/// Strip ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Split on a single character delimiter; keeps empty fields.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char delim);

/// True if `s` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Parse a non-negative integer; throws nocsched::Error on any junk,
/// with `what` naming the field for the error message.
[[nodiscard]] std::uint64_t parse_u64(std::string_view s, std::string_view what);

/// Parse a double; throws nocsched::Error on junk.
[[nodiscard]] double parse_double(std::string_view s, std::string_view what);

/// Join tokens with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Group digits with thousands separators for table output: 1234567 -> "1,234,567".
[[nodiscard]] std::string with_commas(std::uint64_t v);

}  // namespace nocsched
