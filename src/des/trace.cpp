#include "des/trace.hpp"

#include "common/error.hpp"
#include "power/budget.hpp"
#include "power/peak_sweep.hpp"

namespace nocsched::des {

double ChannelUse::utilization(std::uint64_t makespan) const {
  if (makespan == 0) return 0.0;
  return static_cast<double>(busy_cycles) / static_cast<double>(makespan);
}

const SessionTrace& SimTrace::session_for(int module_id) const {
  for (const SessionTrace& s : sessions) {
    if (s.module_id == module_id) return s;
  }
  fail("SimTrace: no session for module ", module_id);
}

double observed_peak_power(const SimTrace& trace) {
  std::vector<Interval> spans(trace.sessions.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SessionTrace& s = trace.sessions[i];
    spans[i] = Interval{s.observed_start, s.observed_end};
    if (!spans[i].empty()) power::require_valid_draw(s.power);
  }
  power::PeakSweep sweep(1);
  for (const power::Edge& e : power::sweep_edges(spans)) {
    sweep.add(0, e, trace.sessions[e.draw].power);
  }
  return sweep.peak(0);
}

}  // namespace nocsched::des
