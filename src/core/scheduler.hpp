#pragma once
// The paper's contribution: greedy test planning for a NoC-based SoC
// with reused embedded processors.
//
// Resources are the two external test interfaces (ATE input and output
// ports) and every embedded processor.  Every test session occupies one
// source, one sink (one processor may play both roles for the same
// core), the two XY paths on the mesh, and a slice of the peak-power
// budget.  A processor becomes available as a resource only after its
// own test session has completed ("a processor is reused for test just
// after it has been successfully tested").
//
// With ResourceChoice::kFirstAvailable the planner is event-driven and
// takes, for the highest-priority pending core, whatever feasible
// (source, sink) pair is free at the current instant, nearest pair
// first — the paper's greedy rule, including its documented anomaly
// (a free-but-slow processor is chosen even when the faster external
// interface frees up moments later).  With kEarliestCompletion the
// planner books each core into the (pair, start time) combination that
// finishes earliest, which removes the anomaly (ablation A1).

#include <cstdint>
#include <span>
#include <vector>

#include "core/pair_table.hpp"
#include "core/schedule.hpp"
#include "core/session_model.hpp"
#include "core/system_model.hpp"
#include "noc/fault.hpp"
#include "power/budget.hpp"

namespace nocsched::core {

/// Plan the complete test of `sys` under `budget`.
/// Throws nocsched::Error when no feasible plan exists (e.g. the budget
/// is below the cheapest feasible session of some core).
[[nodiscard]] Schedule plan_tests(const SystemModel& sys, const power::PowerBudget& budget);

/// Priority order of module ids under the system's PriorityPolicy;
/// exposed for tests and reporting.
[[nodiscard]] std::vector<int> priority_order(const SystemModel& sys);

/// Priority order restricted to the modules whose `include` bit (by
/// module id - 1) is set, sorting with a caller-supplied eligibility
/// bitmap — the fault-aware replanner orders only the surviving,
/// still-testable modules and masks dead processors out of the
/// eligibility it sorts by.
[[nodiscard]] std::vector<int> priority_order(const SystemModel& sys,
                                              const std::vector<bool>& eligible,
                                              const std::vector<bool>& include);

/// Per-module CPU-eligibility bitmap, indexed by module id - 1: true
/// when at least one *other* processor has the memory to run the
/// module's test.  Processors named in `faults` are dead and count for
/// no module's eligibility.  Shared by priority_order's comparator and
/// the restart strategy's tier partition, both of which used to rescan
/// every endpoint per query.
[[nodiscard]] std::vector<bool> cpu_eligible_modules(const SystemModel& sys,
                                                     const noc::FaultSet& faults = {});

/// Plan with an explicit module order (must be a permutation of all
/// module ids); only the offer sequence changes, every feasibility rule
/// still applies.  Reuses a caller-owned PairTable so repeated planning
/// over the same system (the order-search hot path) skips re-enumerating
/// pairs and re-deriving session plans.  `pairs` must have been built
/// from `sys` and must outlive the call; a const PairTable is safe to
/// share across concurrent calls.
[[nodiscard]] Schedule plan_tests_with_order(const SystemModel& sys,
                                             const power::PowerBudget& budget,
                                             const std::vector<int>& order,
                                             const PairTable& pairs);

/// Plan only the modules named in `order` (distinct, valid ids; not
/// necessarily all of them) — the fault-aware replanner's entry: dead
/// or unroutable modules are simply absent, and a processor whose own
/// test is absent never becomes a resource.  `pairs` decides which
/// interface pairs exist (build it from the degraded system).
/// For mid-timeline replans, processors named in `pretested` already
/// completed their own test in an earlier epoch, so they serve from
/// instant 0 even though their test session is absent from this plan.
/// `pretested` must name processor modules of `sys`; ids may not repeat
/// or appear in `order` (a completed test is never replanned).
[[nodiscard]] Schedule plan_tests_subset(const SystemModel& sys,
                                         const power::PowerBudget& budget,
                                         const std::vector<int>& order, const PairTable& pairs,
                                         std::span<const int> pretested = {});

/// The makespan of plan_tests_with_order(sys, budget, order, pairs) —
/// or, with `subset` set, of plan_tests_subset(sys, budget, order,
/// pairs, pretested); `pretested` is read only then — after the same
/// checks, without building the Schedule.  The order search prices
/// every candidate order this way and plans only the winner in full.
[[nodiscard]] std::uint64_t plan_makespan(const SystemModel& sys,
                                          const power::PowerBudget& budget,
                                          const std::vector<int>& order, const PairTable& pairs,
                                          bool subset, std::span<const int> pretested = {});

}  // namespace nocsched::core
