#pragma once
// Shared JSON emission helpers for the report/ serializers.

#include <string>
#include <vector>

namespace nocsched::report {

/// Minimal JSON string escaping (quotes, backslash, control chars).
[[nodiscard]] std::string json_string(const std::string& s);

/// A double at 15 significant digits ("%.15g": "0.1", "1e+16",
/// "-0", "inf", "nan"), matching the stable output the determinism
/// tests diff.
[[nodiscard]] std::string json_number(double v);

/// json_number(v) appended to `out`, with no temporary string.
void append_json_number(std::string& out, double v);

/// A JSON array of integers: "[1, 2, 3]", "[]" when empty.
[[nodiscard]] std::string json_int_array(const std::vector<int>& v);

}  // namespace nocsched::report
