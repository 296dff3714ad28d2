#pragma once
// Discrete-event flit-level replay of a planned test schedule.
//
// The planner prices each session analytically (core/session_model);
// this simulator re-executes the whole plan at packet granularity on
// the mesh and reports what actually happens:
//
//   * every session launches at its planned start — or as soon after as
//     its interfaces are free, its serving processor has finished its
//     own test, and the live power draw leaves room under the budget
//     (runtime admission control, like the test controller would do);
//   * each test pattern becomes a stimulus packet (worm) from the
//     source to the core and a response packet from the core to the
//     sink, sized by the wrapper/NoC characterization (flits_for_bits);
//   * packets traverse their XY route wormhole-style: the head pays the
//     routing latency per hop, body flits stream at the flow-control
//     rate, a blocked head stalls in place holding its acquired
//     channels, and releases back-propagate tail-accurately;
//   * every directed channel carries one worm at a time (FIFO grant
//     order), so link-level contention between concurrent sessions —
//     which the planner only approximates as fluid bandwidth — shows up
//     as real blocking;
//   * sources, cores and sinks are single servers with the
//     characterized per-pattern service times (leon/plasma rates, ATE
//     at line rate, wrapper scan shift), and a processor playing both
//     roles serializes its generate and check jobs on one core;
//   * each session follows the protocol the analytical model prices:
//     one-time circuit setup of both XY paths, then the BIST prologue,
//     then the pipelined pattern loop (a response leaves the wrapper
//     scan_out_length cycles after its shift, overlapping the next
//     shift-in), and finally a wrapper drain of the non-overlapped
//     min(si, so) scan-out remainders before the interfaces release.
//
// The replay is exactly deterministic: integer event times with FIFO
// tie-breaking (see EventQueue), so identical inputs give byte-identical
// traces.  Channel releases are lazy: a worm that has acquired its
// whole path reserves one event slot per hop for its releases, and a
// release event is queued on a slot only once another worm waits for
// that channel.  A request finds the channel free iff the slot orders
// before the event being handled, so every event fires in the order it
// would if each release were queued when reserved, and
// SimTrace::events_processed counts the reserved slots as events.
// A head's next-hop request skips the queue the same way: the grant
// that moves a head on reserves the request's slot (now + routing +
// flow-control latency) and holds it, and the event loop handles it
// at once when nothing queued orders before that slot (else queues it
// there), so every event still runs at the same (time, seq) in the same
// order; the `des.direct_dispatches` counter says how many skipped.
// Model simplifications are conservative where it matters —
// observed timing never undercuts the analytical plan (asserted by the
// test suite; sim::cross_check reports the deltas).
//
// The schedule must be valid (sim::validate) — the replay recomputes
// routes and phase costs from the SystemModel and throws
// nocsched::Error on structurally broken input (bad resource indices,
// unknown modules, or a plan whose dependencies can never be met).

#include <span>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "core/system_model.hpp"
#include "des/trace.hpp"
#include "noc/fault.hpp"

namespace nocsched::des {

/// Replay `schedule` on the fault-free `sys` and return the observed
/// trace: replay_degraded under the empty FaultSet, which loses no
/// session and routes every packet over its XY route.
[[nodiscard]] SimTrace replay(const core::SystemModel& sys, const core::Schedule& schedule);

/// A planned session the degraded mesh cannot run at all.
struct LostSession {
  int module_id = 0;
  std::string reason;
};

/// Result of replaying a plan on a mesh with faults: the sessions that
/// could still run (possibly detoured and delayed), and the ones that
/// could not.
struct DegradedReplay {
  SimTrace trace;                 ///< surviving sessions only
  std::vector<LostSession> lost;  ///< plan order (start, module id)
};

/// Replay `schedule` — planned for the pristine system — on `sys`
/// degraded by `faults`.  Sessions are routed fault-aware
/// (noc::FaultRouter), so a detour costs extra setup hops and real
/// channel contention; a session is lost when its module or an endpoint
/// is a dead processor, no surviving route connects its endpoints, or
/// the processor serving it lost its own test (transitively).  Lost
/// sessions never launch, draw no power, and hold no channels.
/// For a mid-timeline epoch, processors in `pretested` completed their
/// own test in an earlier epoch, so sessions they serve launch without
/// waiting for (or losing) a processor test this plan deliberately
/// omits.
[[nodiscard]] DegradedReplay replay_degraded(const core::SystemModel& sys,
                                             const core::Schedule& schedule,
                                             const noc::FaultSet& faults,
                                             std::span<const int> pretested = {});

}  // namespace nocsched::des
