#include "report/json_util.hpp"

#include <charconv>
#include <cstdio>

namespace nocsched::report {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  std::string out;
  append_json_number(out, v);
  return out;
}

void append_json_number(std::string& out, double v) {
  // "%.15g", as `os << std::setprecision(15) << v` prints it, without a
  // stream: 32 bytes hold any double at 15 significant digits.
  char buf[32];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 15);
  out.append(buf, r.ptr);
}

std::string json_int_array(const std::vector<int>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(v[i]);
  }
  return out + "]";
}

}  // namespace nocsched::report
