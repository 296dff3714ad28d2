#pragma once
// Minimal CSV emission for experiment results.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace nocsched {

/// Streams rows of a CSV table with RFC-4180-style quoting.
/// Row width is fixed by the header; mismatched rows throw.
class CsvWriter {
 public:
  /// Writes the header row immediately.
  CsvWriter(std::ostream& out, std::vector<std::string> header);

  /// Write one row; must match the header width.
  void row(const std::vector<std::string>& cells);

  /// Convenience: accept any mix of streamable cell values.
  template <typename... Cells>
  void row_of(const Cells&... cells) {
    row(std::vector<std::string>{to_cell(cells)...});
  }

 private:
  template <typename T>
  static std::string to_cell(const T& v) {
    if constexpr (std::is_convertible_v<T, std::string>) {
      return std::string(v);
    } else {
      return std::to_string(v);
    }
  }

  void emit(const std::vector<std::string>& cells);

  std::ostream& out_;
  std::size_t width_;
};

/// Quote a single CSV field if it contains comma, quote, or newline.
[[nodiscard]] std::string csv_quote(const std::string& field);

}  // namespace nocsched
