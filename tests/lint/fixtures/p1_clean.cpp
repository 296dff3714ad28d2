// Fixture: rule P1 clean twin — messages built only on failure, cheap
// message arguments, and string calls that sit in the condition (which
// is evaluated anyway) rather than in the message.
#include <string>

namespace demo {

struct Endpoint {
  std::string name() const;
  bool ok() const;
};

template <typename... Args>
std::string cat(const Args&...);
template <typename... Args>
void ensure(bool, const Args&...);
template <typename... Args>
[[noreturn]] void fail(const Args&...);

struct Checker {
  void ensure(bool, const std::string&) const;
};

void check(const Endpoint& ep, const Checker& checker, int id) {
  if (!ep.ok()) fail("plan: ", ep.name(), " cannot act as a source");
  ensure(id > 0, "bad id ", id, " (expected a positive module id)");
  ensure(!ep.name().empty(), "endpoint ", id, " has no name");
  ensure((id, true), "module ", id);
  checker.ensure(id != 2, cat("member ensure ", ep.name()));
  const std::string label = cat("module ", id);
  ensure(!label.empty(), "label for ", id);
}

}  // namespace demo
