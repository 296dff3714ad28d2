#include "core/bounds.hpp"

#include <algorithm>

#include "core/session_model.hpp"

namespace nocsched::core {

LowerBounds makespan_lower_bounds(const SystemModel& sys) {
  LowerBounds bounds;
  const auto& endpoints = sys.endpoints();
  const Endpoint& ate_in = endpoints[0];
  const Endpoint& ate_out = endpoints[1];

  std::uint64_t total_fastest = 0;
  std::size_t stations = 1;  // the ATE channel
  for (const Endpoint& ep : endpoints) {
    if (ep.is_processor()) ++stations;
  }

  for (const itc02::Module& m : sys.soc().modules) {
    const std::uint64_t external = plan_session(sys, m.id, ate_in, ate_out)->duration;
    std::uint64_t fastest = external;
    bool cpu_eligible = false;
    for (const Endpoint& ep : endpoints) {
      if (!ep.is_processor() || ep.processor_module == m.id) continue;
      if (!fits_processor_memory(sys, m.id, ep.cpu)) continue;
      cpu_eligible = true;
      fastest = std::min(fastest, plan_session(sys, m.id, ep, ep)->duration);
    }
    bounds.critical_session = std::max(bounds.critical_session, fastest);
    if (!cpu_eligible) bounds.ate_only_work += external;
    total_fastest += fastest;
  }

  bounds.work_per_station =
      (total_fastest + stations - 1) / static_cast<std::uint64_t>(stations);
  return bounds;
}

}  // namespace nocsched::core
