#include "sim/cross_check.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/error.hpp"
#include "common/interval_set.hpp"
#include "power/budget.hpp"
#include "sim/validate.hpp"

namespace nocsched::sim {

CrossCheckReport cross_check(const core::SystemModel& sys, const core::Schedule& plan,
                             const des::SimTrace& trace, const CrossCheckOptions& options) {
  CrossCheckReport report;
  report.planned_makespan = plan.makespan;
  report.observed_makespan = trace.observed_makespan;
  if (plan.makespan > 0) {
    report.makespan_ratio = static_cast<double>(trace.observed_makespan) /
                            static_cast<double>(plan.makespan);
  }
  auto mismatch = [&](auto&&... parts) {
    report.mismatches.push_back(cat(std::forward<decltype(parts)>(parts)...));
  };

  std::map<int, const des::SessionTrace*> observed;
  for (const des::SessionTrace& t : trace.sessions) {
    if (!observed.emplace(t.module_id, &t).second) {
      mismatch("trace contains duplicate sessions for module ", t.module_id);
    }
  }

  for (const core::Session& planned : plan.sessions) {
    const auto it = observed.find(planned.module_id);
    if (it == observed.end()) {
      mismatch("module ", planned.module_id, " planned but missing from the trace");
      continue;
    }
    const des::SessionTrace& t = *it->second;
    observed.erase(it);

    // The delta is reported even for inconsistent sessions — it is the
    // diagnostic for exactly those (negative values = the mismatch).
    SessionDelta d;
    d.module_id = planned.module_id;
    d.start_slip = t.start_slip();
    d.finish_slip = t.finish_slip();
    d.stretch_cycles = static_cast<std::int64_t>(t.observed_duration()) -
                       static_cast<std::int64_t>(planned.duration());
    d.stretch_ratio = planned.duration() == 0
                          ? 0.0
                          : static_cast<double>(d.stretch_cycles) /
                                static_cast<double>(planned.duration());
    d.blocked_cycles = t.blocked_cycles;
    report.deltas.push_back(d);

    // The replay is conservative by construction; an early launch or an
    // optimistic finish means the cost model (or the replay) is wrong.
    if (t.observed_start < planned.start) {
      mismatch("module ", planned.module_id, " launched at ", t.observed_start,
               " before its planned start ", planned.start);
    }
    if (t.observed_end < planned.end) {
      mismatch("module ", planned.module_id, ": analytical model is optimistic — observed end ",
               t.observed_end, " < planned end ", planned.end);
    }
    const double allowed = static_cast<double>(planned.duration()) * options.max_stretch +
                           static_cast<double>(options.slack_cycles);
    if (static_cast<double>(d.stretch_cycles) > allowed) {
      mismatch("module ", planned.module_id, " stretched ", d.stretch_cycles,
               " cycles over its planned ", planned.duration(), " (tolerance ",
               static_cast<std::uint64_t>(allowed), ")");
    }
  }
  for (const auto& [module_id, t] : observed) {
    mismatch("trace contains module ", module_id, " that the plan never scheduled");
  }

  if (trace.observed_makespan < plan.makespan) {
    mismatch("observed makespan ", trace.observed_makespan, " below planned ", plan.makespan);
  }
  const double allowed_makespan = static_cast<double>(plan.makespan) *
                                      (1.0 + options.max_stretch) +
                                  static_cast<double>(options.slack_cycles);
  if (static_cast<double>(trace.observed_makespan) > allowed_makespan) {
    mismatch("observed makespan ", trace.observed_makespan, " exceeds planned ",
             plan.makespan, " beyond tolerance");
  }

  // Observed-time invariants the validator enforces on the plan.
  if (!power::within_budget(trace.peak_power, plan.power_limit)) {
    mismatch("observed peak power ", trace.peak_power, " exceeds the budget ",
             plan.power_limit);
  }
  const double recomputed = des::observed_peak_power(trace);
  if (std::abs(recomputed - trace.peak_power) >
      1e-6 * (std::abs(recomputed) + std::abs(trace.peak_power) + 1.0)) {
    mismatch("trace peak power ", trace.peak_power, " != recomputed ", recomputed);
  }
  for (const des::ChannelUse& c : trace.channels) {
    if (c.busy_cycles > trace.observed_makespan) {
      mismatch("channel ", c.channel, " busy ", c.busy_cycles,
               " cycles, more than the observed makespan ", trace.observed_makespan);
    }
  }

  // No resource may have served two overlapping sessions in observed
  // time either (the replay serializes endpoints; verify it did).
  std::vector<IntervalSet> busy(sys.endpoints().size());
  const auto resource_ok = [&](int r) {
    return r >= 0 && static_cast<std::size_t>(r) < sys.endpoints().size();
  };
  for (const des::SessionTrace& t : trace.sessions) {
    if (t.observed_end <= t.observed_start) continue;
    if (!resource_ok(t.source_resource) || !resource_ok(t.sink_resource)) continue;
    const Interval iv{t.observed_start, t.observed_end};
    for (int r :
         book_session_resources(busy, t.source_resource, t.sink_resource, iv)) {
      mismatch("resource ", sys.endpoints()[static_cast<std::size_t>(r)].name(),
               " served overlapping observed sessions around [", t.observed_start, ", ",
               t.observed_end, ")");
    }
  }
  return report;
}

}  // namespace nocsched::sim
