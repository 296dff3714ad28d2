// Fixture: rule P1 violations — string building in ensure() message
// arguments, which runs on every call even when the condition holds.
#include <string>

namespace demo {

struct Endpoint {
  std::string name() const;
  bool ok() const;
};

struct Faults {
  std::string describe() const;
};

template <typename... Args>
std::string cat(const Args&...);
template <typename... Args>
void ensure(bool, const Args&...);

void check(const Endpoint& ep, const Endpoint* other, const Faults& faults, int id) {
  ensure(ep.ok(), "plan: ", ep.name(), " cannot act as a source");  // expect[P1]
  ensure(other->ok(), "plan: ", other->name(), " is idle");  // expect[P1]
  ensure(id > 0, cat("bad id ", id));  // expect[P1]
  ensure(id < 9, "faults ", faults.describe());  // expect[P1]
  ensure(id != 3,  // one finding per call, at the first offender
         "pair ", ep.name(),  // expect[P1]
         " / ", other->name());
}

}  // namespace demo
