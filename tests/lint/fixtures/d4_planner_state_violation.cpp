// Fixture: rule D4 violations for PlannerState — the planning kernel's
// state type is shared planning state; outside its owning files it
// may only be taken by const reference (or && sink).

namespace core {
class PlannerState {};
}  // namespace core

namespace demo {

void reprice(core::PlannerState state);  // expect[D4]

void restore(core::PlannerState& state);  // expect[D4]

void patch(core::PlannerState* state);  // expect[D4]

struct Kernel {
  bool operator()(core::PlannerState work) const;  // expect[D4]
};

}  // namespace demo
