#pragma once
// One machine-readable bench row, printed as a single tagged line
//
//   BENCH_ROW <section> {"key": value, ...}
//
// that scripts/bench_headline.py copies verbatim into <section> of
// BENCH_headline.json.  The Row is the one definition of its format:
// keys in insertion order, and each number printed exactly as the
// stream prints it under the row's current formatting (`fixed(n)`
// switches the numbers added after it to n decimals).  `cells()` gives
// the same values space-separated, for benches whose human table is
// the row itself.

#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "report/json_util.hpp"

namespace nocsched::bench {

class Row {
 public:
  explicit Row(std::string section) : section_(std::move(section)) {}

  /// Print the numbers added after this with `digits` fixed decimals.
  Row& fixed(int digits) {
    fmt_ << std::fixed << std::setprecision(digits);
    return *this;
  }

  /// A number, as the stream prints it.
  template <typename T>
  Row& num(const std::string& key, const T& value) {
    fmt_.str("");
    fmt_ << value;
    fields_.push_back({key, fmt_.str(), false});
    return *this;
  }

  /// A string, JSON-escaped in the row.
  Row& str(const std::string& key, const std::string& value) {
    fields_.push_back({key, value, true});
    return *this;
  }

  /// The values, space-separated and unquoted.
  [[nodiscard]] std::string cells() const {
    std::string out;
    for (const Field& f : fields_) out += (out.empty() ? "" : " ") + f.text;
    return out;
  }

  /// The tagged line, newline included.
  friend std::ostream& operator<<(std::ostream& out, const Row& row) {
    out << "BENCH_ROW " << row.section_ << " {";
    for (std::size_t i = 0; i < row.fields_.size(); ++i) {
      const Field& f = row.fields_[i];
      out << (i > 0 ? ", " : "") << report::json_string(f.key) << ": "
          << (f.quoted ? report::json_string(f.text) : f.text);
    }
    return out << "}\n";
  }

 private:
  struct Field {
    std::string key;
    std::string text;
    bool quoted;
  };

  std::string section_;
  std::ostringstream fmt_;
  std::vector<Field> fields_;
};

}  // namespace nocsched::bench
