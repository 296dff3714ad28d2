// Fixture: rule P2 clean twin — success-path text built with appends
// and std::to_chars; cat(...) and std::ostringstream only inside the
// argument list of a fail(), die() or Error() call, which runs only
// when the request is already failing.
#include <charconv>
#include <sstream>
#include <string>

#include "common/error.hpp"

namespace demo {

using nocsched::cat;
using nocsched::Error;
using nocsched::fail;

struct Scanner {
  template <typename... Parts>
  [[noreturn]] void die(Parts&&... parts) const;
};

// Declared elsewhere; its member function cat() is not nocsched::cat.
struct Log;

std::string result_line(const std::string& id, unsigned long makespan) {
  std::string out = "{\"id\": \"" + id + "\", \"makespan\": ";
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, makespan).ptr);
  return out + "}";
}

void check(const Scanner& sc, Log& log, int procs, const std::string& name) {
  if (procs > 64) fail("procs ", procs, " is out of range (", cat("at most ", 64), ")");
  if (name.empty()) sc.die("empty name for ", cat(procs, " procs"));
  if (procs < 0) throw Error(cat("negative procs ", procs));
  if (procs == 7) fail("nested: ", [&] { return cat("in a lambda ", procs); }());
  if (procs == 9) {
    fail([&] {
      std::ostringstream os;
      os << "built in a lambda inside fail " << procs;
      return os.str();
    }());
  }
  log.cat(name);
}

}  // namespace demo
