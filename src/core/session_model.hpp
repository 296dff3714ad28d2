#pragma once
// Session cost model: duration, power and NoC paths of one test session
// (one core tested from one source to one sink).
//
// Timing model (DESIGN.md §2/3):
//   duration = path setup (both routes)
//            + BIST program prologue (when a processor participates)
//            + per phase: ceil(per_pattern) * patterns + tail scan-out
// where per_pattern is the bottleneck of
//   - the wrapper shift (1 + max(si, so) cycles),
//   - the stimulus stream (flits_in x source rate),
//   - the response stream (flits_out x sink rate),
// and a processor acting as both source and sink serializes its two
// per-pattern jobs (one program does both loops).
//
// Power model: core test power + per-hop transport power + the active
// power of each participating processor (counted once when the same
// processor plays both roles).

#include <cstdint>
#include <optional>
#include <vector>

#include "core/system_model.hpp"
#include "noc/fault.hpp"
#include "noc/routing.hpp"

namespace nocsched::core {

/// Planned cost of a candidate session.
struct SessionPlan {
  std::uint64_t duration = 0;  ///< cycles from start to completion
  double power = 0.0;          ///< constant draw while active
  std::vector<noc::ChannelId> path_in;   ///< route source -> core
  std::vector<noc::ChannelId> path_out;  ///< route core -> sink
  /// Fraction of each path channel's bandwidth the stream occupies
  /// (flits per cycle, worst phase), for ChannelModel::kMultiplexed.
  double bandwidth_in = 0.0;
  double bandwidth_out = 0.0;

  friend bool operator==(const SessionPlan&, const SessionPlan&) = default;
};

/// Compute the plan for testing `module_id` from `source` to `sink`
/// over the mesh degraded by `router.faults()`: both legs follow
/// router.route(), which is the XY route whenever it survives, so the
/// fault-free system is exactly the empty FaultSet.  The cost model
/// depends on routes only through their length, so a detour lengthens
/// setup and transport power consistently.  Returns nullopt when the
/// session cannot exist under the faults — the module under test, the
/// source, or the sink is a failed processor, or no surviving route
/// connects the endpoints (never, for an empty set).  `router` must be
/// built over `sys.mesh()`; a caller pricing many sessions under one
/// fault set passes the same router to each, so the surviving graph is
/// searched once.  `source.can_source()` and `sink.can_sink()` must
/// hold.
[[nodiscard]] std::optional<SessionPlan> plan_session(const SystemModel& sys, int module_id,
                                                      const Endpoint& source,
                                                      const Endpoint& sink,
                                                      noc::FaultRouter& router);

/// plan_session on the pristine system (the empty FaultSet).
[[nodiscard]] std::optional<SessionPlan> plan_session(const SystemModel& sys, int module_id,
                                                      const Endpoint& source,
                                                      const Endpoint& sink);

/// The pricing half of plan_session: duration, power and bandwidths of
/// testing `module_id` from `source` to `sink` over a stimulus route of
/// `h_in` channels and a response route of `h_out` — the cost model
/// depends on routes only through their length.  The paths of the
/// returned plan are left empty: plan_session fills in the two
/// FaultRouter legs it priced, and a caller that has already
/// routed a session (the validator) prices it here without routing
/// again.  Throws nocsched::Error when `source` cannot source, `sink`
/// cannot sink, or either is the processor under test.
[[nodiscard]] SessionPlan price_session(const SystemModel& sys, int module_id,
                                        const Endpoint& source, const Endpoint& sink, int h_in,
                                        int h_out);

/// True when `faults` rule the session out before any routing: the
/// module under test, the source, or the sink is a failed processor
/// (plan_session returns nullopt for exactly these, and for a missing
/// route).
[[nodiscard]] bool session_dead(const SystemModel& sys, int module_id, const Endpoint& source,
                                const Endpoint& sink, const noc::FaultSet& faults);

/// Local memory the software-BIST application needs on a processor of
/// `kind` to test `module_id`: the kernel program, its parameter block,
/// and per-pattern response mask/expected-signature data (paper step 2
/// characterizes "time, memory requirements and power").  Cores whose
/// footprint exceeds the processor's RAM can only be tested externally.
[[nodiscard]] std::uint64_t bist_memory_bytes(const SystemModel& sys, int module_id,
                                              itc02::ProcessorKind kind);

/// True if a processor of `kind` has enough local memory for the module.
[[nodiscard]] bool fits_processor_memory(const SystemModel& sys, int module_id,
                                         itc02::ProcessorKind kind);

}  // namespace nocsched::core
