#include "report/json_util.hpp"

#include <cstdio>
#include <iomanip>
#include <sstream>

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
  std::ostringstream os;
  os << std::setprecision(15) << v;
  return os.str();
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
