#pragma once
// Independent validation of a test plan.
//
// Replays a Schedule against the SystemModel and re-checks every
// constraint the planner is supposed to honour:
//
//   1. every module is tested exactly once;
//   2. sessions have sane extents and makespan equals the last end;
//   3. no resource (ATE port or processor) serves two overlapping
//      sessions, and ATE ports only play their legal role;
//   4. a processor serves sessions only after its own test completed;
//   5. no directed NoC channel carries two overlapping sessions, and
//      every recorded path is the XY route the mesh would produce (or
//      its fault-aware detour; the fault-free mesh is the empty set);
//   6. the summed power never exceeds the budget, and the recorded
//      per-session power and duration match the cost model;
//   7. sources can source, sinks can sink, and a module never tests
//      itself.
//
// Everything the planner produced is rebuilt here from scratch
// (reservation tables, routes, power and channel-load peaks), so
// planner bookkeeping bugs cannot hide themselves: the validator reads
// no PairTable, pass ledger, StepFunction or planner state.
//
// The rebuilt tables live in validator-owned per-thread scratch that
// every call re-targets (sizes, clears, resets) before reading it, the
// way the planning kernel reuses its per-thread Planner.  Only capacity
// outlives a call, so a warm thread validates a valid fault-free plan
// without allocating, while no report depends on what the thread
// validated before, even after a call that threw, or on which thread
// validates.  Nothing else is kept between calls: no memo of plans or
// results.

#include <span>
#include <string>
#include <vector>

#include "common/interval_set.hpp"
#include "core/schedule.hpp"
#include "core/system_model.hpp"
#include "noc/fault.hpp"

namespace nocsched::sim {

struct ValidationReport {
  std::vector<std::string> violations;
  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Book `iv` on a session's source and sink resources in `busy`, a
/// dense per-endpoint table (indices must be in range) — a processor
/// playing both roles books exactly once.  Returns the resources that
/// already held a conflicting interval (empty = clean); conflict-free
/// resources are booked even when the other one clashes.  Shared by
/// the validator, the replay cross-check, and the property suites so
/// all of them agree on what double-booking means.
[[nodiscard]] std::vector<int> book_session_resources(std::span<IntervalSet> busy,
                                                      int source, int sink,
                                                      const Interval& iv);

/// Collect all violations of a complete fault-free plan (every module
/// exactly once; empty report = valid plan).
[[nodiscard]] ValidationReport validate(const core::SystemModel& sys,
                                        const core::Schedule& schedule);

/// Validate a fault-aware replan of the degraded system: coverage
/// relaxes to "each module at most once" (dead or unroutable modules
/// are legitimately absent — search::replan reports them), paths must
/// be the deterministic fault-aware routes (so they never traverse a
/// failed channel or router), no session may touch a failed processor,
/// and recorded costs must match the fault-aware cost model.  For a
/// mid-timeline epoch plan, processors in `pretested` completed their
/// own test in an earlier epoch, so they are ready from instant 0 and
/// need no session of their own here.
[[nodiscard]] ValidationReport validate(const core::SystemModel& sys,
                                        const core::Schedule& schedule,
                                        const noc::FaultSet& faults,
                                        std::span<const int> pretested = {});

/// Throw nocsched::Error listing the violations, if any.
void validate_or_throw(const core::SystemModel& sys, const core::Schedule& schedule);
void validate_or_throw(const core::SystemModel& sys, const core::Schedule& schedule,
                       const noc::FaultSet& faults, std::span<const int> pretested = {});

}  // namespace nocsched::sim
