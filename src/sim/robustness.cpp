#include "sim/robustness.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"

namespace nocsched::sim {

std::string_view to_string(SessionFate fate) {
  switch (fate) {
    case SessionFate::kUnaffected:
      return "unaffected";
    case SessionFate::kDelayed:
      return "delayed";
    case SessionFate::kUnroutable:
      return "unroutable";
  }
  return "?";
}

RobustnessReport assess_robustness(const core::SystemModel& sys, const core::Schedule& plan,
                                   const noc::FaultSet& faults,
                                   const des::SimTrace& baseline) {
  des::DegradedReplay degraded = des::replay_degraded(sys, plan, faults);

  std::map<int, const des::SessionTrace*> degraded_by_module;
  for (const des::SessionTrace& t : degraded.trace.sessions) {
    degraded_by_module.emplace(t.module_id, &t);
  }
  std::map<int, std::string> lost_by_module;
  for (des::LostSession& l : degraded.lost) {
    lost_by_module.emplace(l.module_id, std::move(l.reason));
  }

  RobustnessReport report;
  report.planned_makespan = plan.makespan;
  report.baseline_makespan = baseline.observed_makespan;
  report.degraded_makespan = degraded.trace.observed_makespan;
  if (baseline.observed_makespan > 0) {
    report.makespan_stretch = static_cast<double>(degraded.trace.observed_makespan) /
                              static_cast<double>(baseline.observed_makespan);
  }

  for (const des::SessionTrace& base : baseline.sessions) {
    SessionRobustness s;
    s.module_id = base.module_id;
    s.baseline_start = base.observed_start;
    s.baseline_end = base.observed_end;
    if (const auto it = lost_by_module.find(base.module_id); it != lost_by_module.end()) {
      s.fate = SessionFate::kUnroutable;
      s.reason = it->second;
      ++report.lost;
    } else {
      const auto it2 = degraded_by_module.find(base.module_id);
      ensure(it2 != degraded_by_module.end(), "robustness: module ", base.module_id,
             " vanished from the degraded replay without a loss reason");
      const des::SessionTrace& deg = *it2->second;
      s.degraded_start = deg.observed_start;
      s.degraded_end = deg.observed_end;
      s.delay = static_cast<std::int64_t>(deg.observed_end) -
                static_cast<std::int64_t>(base.observed_end);
      const bool moved =
          deg.observed_start != base.observed_start || deg.observed_end != base.observed_end;
      s.fate = moved ? SessionFate::kDelayed : SessionFate::kUnaffected;
      ++(moved ? report.delayed : report.unaffected);
    }
    report.sessions.push_back(std::move(s));
  }
  std::sort(report.sessions.begin(), report.sessions.end(),
            [](const SessionRobustness& a, const SessionRobustness& b) {
              return a.module_id < b.module_id;
            });
  return report;
}

}  // namespace nocsched::sim
