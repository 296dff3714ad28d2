#include "core/schedule.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace nocsched::core {

const Session& Schedule::session_for(int module_id) const {
  for (const Session& s : sessions) {
    if (s.module_id == module_id) return s;
  }
  fail("Schedule: no session for module ", module_id);
}

ScheduleIndex::ScheduleIndex(const Schedule& schedule) : schedule_(schedule) {
  int max_module = -1;
  for (const Session& s : schedule.sessions) max_module = std::max(max_module, s.module_id);
  by_module_.assign(static_cast<std::size_t>(max_module + 1), knone);
  for (std::size_t i = 0; i < schedule.sessions.size(); ++i) {
    const Session& s = schedule.sessions[i];
    if (s.module_id >= 0 && by_module_[static_cast<std::size_t>(s.module_id)] == knone) {
      by_module_[static_cast<std::size_t>(s.module_id)] = static_cast<std::uint32_t>(i);
    }
  }
}

const Session& ScheduleIndex::session_for(int module_id) const {
  if (module_id < 0 || static_cast<std::size_t>(module_id) >= by_module_.size()) {
    // Negative ids never hit the table; delegate for the identical
    // not-found error.
    return schedule_.session_for(module_id);
  }
  const std::uint32_t i = by_module_[static_cast<std::size_t>(module_id)];
  if (i == knone) fail("Schedule: no session for module ", module_id);
  return schedule_.sessions[i];
}

}  // namespace nocsched::core
