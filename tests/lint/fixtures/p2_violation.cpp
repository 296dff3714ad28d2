// Fixture: rule P2 violations — stream formatting on the engine's
// request path, outside the argument list of any fail(), die() or
// Error() call.
#include <sstream>
#include <string>

#include "common/error.hpp"

namespace demo {

using nocsched::cat;
using nocsched::fail;

std::string json_string(const std::string& s);

std::string result_line(const std::string& id, int makespan) {
  return cat("{\"id\": ", json_string(id), ", \"makespan\": ", makespan, "}");  // expect[P2]
}

std::string origin(const std::string& source, int line) {
  std::ostringstream os;  // expect[P2]
  os << source << ":" << line;
  return os.str();
}

void check(int procs) {
  // Built before the test, so it is formatted on every call.
  const std::string message = cat("procs ", procs, " is out of range");  // expect[P2]
  if (procs > 64) fail(message);
}

std::string prefixed(const std::string& where, const std::string& what) {
  return where.empty() ? what : cat(where, ": ", what);  // expect[P2]
}

std::string tagged(int line) {
  // Inside a call that is not a failure: still the success path.
  return json_string(nocsched::cat("line-", line));  // expect[P2]
}

}  // namespace demo
