#include "sim/validate.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/session_model.hpp"
#include "power/budget.hpp"
#include "power/peak_sweep.hpp"

namespace nocsched::sim {

namespace {

bool near(double a, double b) { return std::abs(a - b) <= 1e-6 * (std::abs(a) + std::abs(b) + 1.0); }

/// Channel counts of a session's two fault-aware routes (-1: no
/// surviving route), all the cost model needs of them.
struct RouteHops {
  int in = -1;
  int out = -1;
};

/// The peaks one power::PeakSweep over a plan's sessions finds.
struct PlanPeaks {
  double power = 0.0;  ///< summed power of every non-empty session
  /// Multiplexed load of every directed channel a `loaded` session
  /// crosses, as (channel, peak) in ascending channel order.
  std::vector<std::pair<noc::ChannelId, double>> channel_loads;
};

/// Sweeps, for each session flagged `loaded` (valid bandwidths), both
/// legs' bandwidths into one lane per channel (stimulus leg before
/// response leg), and every non-empty session's power into one last
/// lane.  The session powers are checked first, in session order.
/// Recorded ids outside the mesh (hostile input) get extra lanes ordered
/// around the mesh's own, keeping lane order equal to channel order.
PlanPeaks sweep_peaks(std::span<const core::Session> sessions,
                      std::span<const std::uint8_t> loaded, int mesh_channels) {
  std::vector<Interval> spans(sessions.size());
  std::vector<noc::ChannelId> outside;  // sorted, unique
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const core::Session& s = sessions[i];
    spans[i] = Interval{s.start, s.end};
    if (!spans[i].empty()) power::require_valid_draw(s.power);
    if (!loaded[i]) continue;
    for (const auto* path : {&s.path_in, &s.path_out}) {
      for (const noc::ChannelId c : *path) {
        if (c < 0 || c >= mesh_channels) outside.push_back(c);
      }
    }
  }
  std::sort(outside.begin(), outside.end());
  outside.erase(std::unique(outside.begin(), outside.end()), outside.end());
  const auto below = static_cast<std::size_t>(
      std::lower_bound(outside.begin(), outside.end(), 0) - outside.begin());
  const auto mesh = static_cast<std::size_t>(mesh_channels);
  auto lane_of = [&](noc::ChannelId c) -> std::size_t {
    if (c >= 0 && c < mesh_channels) return below + static_cast<std::size_t>(c);
    const auto k = static_cast<std::size_t>(
        std::lower_bound(outside.begin(), outside.end(), c) - outside.begin());
    return c < 0 ? k : mesh + k;
  };
  auto channel_of = [&](std::size_t lane) -> noc::ChannelId {
    if (lane < below) return outside[lane];
    if (lane < below + mesh) return static_cast<noc::ChannelId>(lane - below);
    return outside[lane - mesh];
  };

  const std::size_t power_lane = mesh + outside.size();
  power::PeakSweep sweep(power_lane + 1);
  for (const power::Edge& e : power::sweep_edges(spans)) {
    const core::Session& s = sessions[e.draw];
    if (s.power != 0.0) sweep.add(power_lane, e, s.power);  // a zero draw books nothing
    if (!loaded[e.draw]) continue;
    const double bws[] = {s.bandwidth_in, s.bandwidth_out};
    int side = 0;
    for (const auto* path : {&s.path_in, &s.path_out}) {
      const double bw = bws[side++];
      if (bw == 0.0) continue;
      for (const noc::ChannelId c : *path) sweep.add(lane_of(c), e, bw);
    }
  }

  PlanPeaks out;
  out.power = sweep.peak(power_lane);
  for (std::size_t lane = 0; lane < power_lane; ++lane) {
    const double peak = sweep.peak(lane);
    if (peak > 0.0) out.channel_loads.emplace_back(channel_of(lane), peak);
  }
  return out;
}

}  // namespace

std::vector<int> book_session_resources(std::span<IntervalSet> busy, int source, int sink,
                                        const Interval& iv) {
  std::vector<int> conflicts;
  const int resources[] = {source, sink};
  const int roles = source == sink ? 1 : 2;
  for (int i = 0; i < roles; ++i) {
    IntervalSet& set = busy[static_cast<std::size_t>(resources[i])];
    if (set.conflicts(iv)) {
      conflicts.push_back(resources[i]);
    } else {
      set.insert(iv);
    }
  }
  return conflicts;
}

namespace {

/// `complete`: every module must be tested exactly once (a full plan);
/// otherwise at most once (a replan, whose dead or unroutable modules
/// are legitimately absent — search::replan reports the losses).
ValidationReport validate_impl(const core::SystemModel& sys, const core::Schedule& schedule,
                               const noc::FaultSet& faults, std::span<const int> pretested,
                               bool complete) {
  ValidationReport report;
  auto violation = [&](auto&&... parts) {
    report.violations.push_back(cat(std::forward<decltype(parts)>(parts)...));
  };

  const auto& endpoints = sys.endpoints();
  auto endpoint_ok = [&](int r) { return r >= 0 && static_cast<std::size_t>(r) < endpoints.size(); };
  // Every SystemModel's SoC has ids 1..N, so dense per-id vectors
  // have N + 1 slots and Soc::find is a direct lookup.
  const itc02::Soc& soc = sys.soc();
  const std::size_t id_bound = soc.size() + 1;

  // 1. Coverage: each module exactly once, or at most once unless
  // `complete`.  Counts are dense per module id; ids outside the SoC's
  // range spill to `stray`.
  std::vector<int> seen(id_bound, 0);
  std::map<int, int> stray;
  for (const core::Session& s : schedule.sessions) {
    if (s.module_id >= 0 && static_cast<std::size_t>(s.module_id) < seen.size()) {
      seen[static_cast<std::size_t>(s.module_id)] += 1;
    } else {
      stray[s.module_id] += 1;
    }
  }
  for (const itc02::Module& m : soc.modules) {
    int& count = seen[static_cast<std::size_t>(m.id)];
    if ((complete && count < 1) || count > 1) {
      violation("module ", m.id, " ('", m.name, "') tested ", count, " times (expected ",
                complete ? "1" : "at most 1", ")");
    }
    count = 0;  // consumed: what remains non-zero has no module
  }
  // Unknown ids in ascending order (the order the old sorted-map walk
  // produced): strays below zero, in-range ids with no module, strays
  // past the id range.
  auto stray_it = stray.begin();
  for (; stray_it != stray.end() && stray_it->first < 0; ++stray_it) {
    violation("schedule tests unknown module ", stray_it->first, " (", stray_it->second,
              " sessions)");
  }
  for (std::size_t id = 0; id < seen.size(); ++id) {
    if (seen[id] > 0) {
      violation("schedule tests unknown module ", static_cast<int>(id), " (", seen[id],
                " sessions)");
    }
  }
  for (; stray_it != stray.end(); ++stray_it) {
    violation("schedule tests unknown module ", stray_it->first, " (", stray_it->second,
              " sessions)");
  }

  // 2. Extents and makespan.
  std::uint64_t last_end = 0;
  for (const core::Session& s : schedule.sessions) {
    if (s.end <= s.start) {
      violation("module ", s.module_id, ": empty session [", s.start, ", ", s.end, ")");
    }
    last_end = std::max(last_end, s.end);
  }
  if (!schedule.sessions.empty() && schedule.makespan != last_end) {
    violation("makespan ", schedule.makespan, " != last session end ", last_end);
  }

  // Processor completion times (for precedence checks).  Pretested
  // processors finished their own test in an earlier timeline epoch —
  // ready from instant 0 even though this plan has no session for them.
  // Dense by module id; nullopt = the processor was never tested.
  std::vector<std::optional<std::uint64_t>> processor_ready(id_bound);
  for (const int id : pretested) {
    if (const itc02::Module* m = soc.find(id); m != nullptr && m->is_processor) {
      processor_ready[static_cast<std::size_t>(id)] = 0;
    }
  }
  for (const core::Session& s : schedule.sessions) {
    if (const itc02::Module* m = soc.find(s.module_id); m != nullptr && m->is_processor) {
      processor_ready[static_cast<std::size_t>(s.module_id)] = s.end;
    }
  }
  auto ready_at = [&](int id) -> std::optional<std::uint64_t> {
    if (id < 0 || static_cast<std::size_t>(id) >= processor_ready.size()) return std::nullopt;
    return processor_ready[static_cast<std::size_t>(id)];
  };

  // 3/4/7. Resource usage.
  std::vector<IntervalSet> resource_busy(endpoints.size());
  for (const core::Session& s : schedule.sessions) {
    if (!endpoint_ok(s.source_resource) || !endpoint_ok(s.sink_resource)) {
      violation("module ", s.module_id, ": resource index out of range");
      continue;
    }
    const core::Endpoint& src = endpoints[static_cast<std::size_t>(s.source_resource)];
    const core::Endpoint& snk = endpoints[static_cast<std::size_t>(s.sink_resource)];
    if (!src.can_source()) {
      violation("module ", s.module_id, ": ", src.name(), " cannot source");
    }
    if (!snk.can_sink()) {
      violation("module ", s.module_id, ": ", snk.name(), " cannot sink");
    }
    if (const itc02::Module* m = soc.find(s.module_id);
        m != nullptr && m->is_processor && faults.processor_failed(s.module_id)) {
      violation("module ", s.module_id, " is a failed processor but is scheduled");
    }
    for (const core::Endpoint* ep : {&src, &snk}) {
      if (ep->is_processor() && faults.processor_failed(ep->processor_module)) {
        violation("module ", s.module_id, " uses failed processor ", ep->processor_module);
      }
    }
    for (const core::Endpoint* ep : {&src, &snk}) {
      if (ep->is_processor()) {
        if (ep->processor_module == s.module_id) {
          violation("module ", s.module_id, " is tested through itself");
        } else if (const auto ready = ready_at(ep->processor_module); !ready) {
          violation("module ", s.module_id, " uses untested processor ",
                    ep->processor_module);
        } else if (s.start < *ready) {
          violation("module ", s.module_id, " starts at ", s.start, " on processor ",
                    ep->processor_module, " which is only ready at ", *ready);
        }
      }
    }
    if (s.end <= s.start) continue;  // already reported as an empty session
    const Interval iv{s.start, s.end};
    for (int r : book_session_resources(resource_busy, s.source_resource, s.sink_resource,
                                        iv)) {
      violation("resource ", endpoints[static_cast<std::size_t>(r)].name(),
                " double-booked around [", s.start, ", ", s.end, ") by module ",
                s.module_id);
    }
  }

  // 5. Channel usage (per the system's channel model) and path
  // correctness.  The routes computed here are what check 6 prices.
  const bool circuit = sys.params().channel_model == core::ChannelModel::kCircuit;
  std::vector<RouteHops> hops(schedule.sessions.size());
  std::map<noc::ChannelId, IntervalSet> channel_busy;
  // Sessions booked as multiplexed channel load.
  std::vector<std::uint8_t> loaded(schedule.sessions.size(), 0);
  noc::FaultRouter router(sys.mesh(), faults);
  for (std::size_t i = 0; i < schedule.sessions.size(); ++i) {
    const core::Session& s = schedule.sessions[i];
    if (!endpoint_ok(s.source_resource) || !endpoint_ok(s.sink_resource)) continue;
    const core::Endpoint& src = endpoints[static_cast<std::size_t>(s.source_resource)];
    const core::Endpoint& snk = endpoints[static_cast<std::size_t>(s.sink_resource)];
    if (soc.find(s.module_id) == nullptr) continue;
    const noc::RouterId at = sys.router_of(s.module_id);
    const auto in = router.route(src.router, at);
    if (in) hops[i].in = static_cast<int>(in->size());
    if (!in || s.path_in != *in) {
      violation("module ", s.module_id,
                ": recorded stimulus path is not the XY route or its fault-aware detour");
    }
    const auto out = router.route(at, snk.router);
    if (out) hops[i].out = static_cast<int>(out->size());
    if (!out || s.path_out != *out) {
      violation("module ", s.module_id,
                ": recorded response path is not the XY route or its fault-aware detour");
    }
    // Belt and braces: the route contract says this can never happen,
    // and a schedule that crosses dead silicon must fail loudly even if
    // the route comparison above is someday relaxed.
    for (const auto* path : {&s.path_in, &s.path_out}) {
      if (router.usable(*path)) continue;
      for (noc::ChannelId c : *path) {
        if (!router.channel_usable(c)) {
          violation("module ", s.module_id, ": path traverses failed channel ", c);
        }
      }
    }
    if (s.end <= s.start) continue;
    if (!circuit) {
      // A leg's bandwidth is a draw on every channel it crosses.
      if (!s.path_in.empty()) power::require_valid_draw(s.bandwidth_in);
      if (!s.path_out.empty()) power::require_valid_draw(s.bandwidth_out);
      loaded[i] = 1;
      continue;
    }
    const Interval iv{s.start, s.end};
    for (const auto* path : {&s.path_in, &s.path_out}) {
      for (noc::ChannelId c : *path) {
        IntervalSet& busy = channel_busy[c];
        if (busy.conflicts(iv)) {
          violation("channel ", c, " double-booked around [", s.start, ", ", s.end,
                    ") by module ", s.module_id);
        } else {
          busy.insert(iv);
        }
      }
    }
  }
  const PlanPeaks peaks = sweep_peaks(schedule.sessions, loaded, sys.mesh().channel_count());
  for (const auto& [channel, peak_load] : peaks.channel_loads) {
    if (!power::within_budget(peak_load, 1.0)) {
      violation("channel ", channel, " oversubscribed: peak bandwidth ", peak_load);
    }
  }

  // 6. Power: the swept peak within budget; recorded values match the
  // cost model, priced over the routes check 5 computed.
  for (std::size_t i = 0; i < schedule.sessions.size(); ++i) {
    const core::Session& s = schedule.sessions[i];
    if (s.end <= s.start) continue;
    if (!endpoint_ok(s.source_resource) || !endpoint_ok(s.sink_resource)) continue;
    if (soc.find(s.module_id) == nullptr) continue;
    const core::Endpoint& src = endpoints[static_cast<std::size_t>(s.source_resource)];
    const core::Endpoint& snk = endpoints[static_cast<std::size_t>(s.sink_resource)];
    // Role violations are reported above; the cost model cannot price an
    // illegal pairing.
    if (!src.can_source() || !snk.can_sink()) continue;
    if (src.is_processor() && src.processor_module == s.module_id) continue;
    if (snk.is_processor() && snk.processor_module == s.module_id) continue;
    const RouteHops& h = hops[i];
    if (core::session_dead(sys, s.module_id, src, snk, faults) || h.in < 0 || h.out < 0) {
      violation("module ", s.module_id,
                ": scheduled but the fault-aware cost model finds no route");
      continue;
    }
    const core::SessionPlan plan = core::price_session(sys, s.module_id, src, snk, h.in, h.out);
    if (plan.duration != s.duration()) {
      violation("module ", s.module_id, ": recorded duration ", s.duration(),
                " != cost model ", plan.duration);
    }
    if (!near(plan.power, s.power)) {
      violation("module ", s.module_id, ": recorded power ", s.power, " != cost model ",
                plan.power);
    }
    if (!near(plan.bandwidth_in, s.bandwidth_in) || !near(plan.bandwidth_out, s.bandwidth_out)) {
      violation("module ", s.module_id, ": recorded channel bandwidth != cost model");
    }
  }
  const double peak = peaks.power;
  if (!power::within_budget(peak, schedule.power_limit)) {
    violation("peak power ", peak, " exceeds budget ", schedule.power_limit);
  }
  if (!schedule.sessions.empty() && !near(peak, schedule.peak_power)) {
    violation("recorded peak power ", schedule.peak_power, " != recomputed ", peak);
  }

  return report;
}

}  // namespace

ValidationReport validate(const core::SystemModel& sys, const core::Schedule& schedule) {
  return validate_impl(sys, schedule, {}, {}, /*complete=*/true);
}

ValidationReport validate(const core::SystemModel& sys, const core::Schedule& schedule,
                          const noc::FaultSet& faults, std::span<const int> pretested) {
  return validate_impl(sys, schedule, faults, pretested, /*complete=*/false);
}

namespace {

void throw_on_violations(const ValidationReport& report) {
  if (report.ok()) return;
  std::string all = "schedule validation failed:";
  for (const std::string& v : report.violations) {
    all += "\n  - ";
    all += v;
  }
  throw Error(all);
}

}  // namespace

void validate_or_throw(const core::SystemModel& sys, const core::Schedule& schedule) {
  throw_on_violations(validate(sys, schedule));
}

void validate_or_throw(const core::SystemModel& sys, const core::Schedule& schedule,
                       const noc::FaultSet& faults, std::span<const int> pretested) {
  throw_on_violations(validate(sys, schedule, faults, pretested));
}

}  // namespace nocsched::sim
