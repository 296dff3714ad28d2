#pragma once
// Shared JSON emission helpers for the report/ serializers.

#include <string>
#include <vector>

namespace nocsched::report {

/// Minimal JSON string escaping (quotes, backslash, control chars).
[[nodiscard]] std::string json_string(const std::string& s);

/// Shortest round-trippable decimal for a double (15 significant
/// digits), matching the stable output the determinism tests diff.
[[nodiscard]] std::string json_number(double v);

/// A JSON array of integers: "[1, 2, 3]", "[]" when empty.
[[nodiscard]] std::string json_int_array(const std::vector<int>& v);

}  // namespace nocsched::report
