#pragma once
// Fault-aware replanning: when links, routers, or reused processors
// die mid-session, re-derive a test plan for the degraded system.
//
// The replan masks dead processors out of the CPU-eligibility bitmap,
// drops modules that no surviving interface pair can reach (reporting
// them, rather than failing — the controller must know exactly what
// coverage it lost), and re-runs the src/search/ driver over the
// surviving modules, so every search strategy and the full determinism
// contract (bit-identical at any --jobs count) carry over unchanged.
//
// Two table paths exist on purpose: the plain overload rebuilds the
// degraded PairTable from scratch, the `pristine` overload copies a
// prebuilt pristine table and incrementally re-enumerates only the
// fault-touched modules (PairTable::apply_faults).  They produce
// bit-identical results; bench/fault_sweep measures the gap.

#include <cstdint>
#include <vector>

#include "core/pair_table.hpp"
#include "core/schedule.hpp"
#include "core/system_model.hpp"
#include "noc/fault.hpp"
#include "power/budget.hpp"
#include "search/driver.hpp"

namespace nocsched::search {

struct ReplanResult {
  core::Schedule schedule;      ///< plan covering every still-testable module
  obs::MetricsSnapshot metrics; ///< what the search spent finding it (search.*)
  /// Failed processor modules — dead silicon, excluded from planning.
  std::vector<int> dead_modules;
  /// Surviving modules with no usable interface pair under the faults
  /// (unroutable or served only by dead processors): coverage lost.
  std::vector<int> untestable_modules;
  /// Modules the schedule actually tests (ascending ids).
  std::vector<int> planned_modules;
  /// Modules whose pair lists the incremental path re-enumerated (0 on
  /// the from-scratch path and for empty fault sets).
  std::size_t pairs_rebuilt = 0;
};

/// Replan `sys` under `faults`, building the degraded PairTable from
/// scratch.
[[nodiscard]] ReplanResult replan(const core::SystemModel& sys,
                                  const power::PowerBudget& budget,
                                  const noc::FaultSet& faults, const SearchOptions& options);

/// Replan reusing `pristine` (the fault-free PairTable of `sys`):
/// copies it and incrementally degrades the copy.  Bit-identical to the
/// from-scratch overload.
[[nodiscard]] ReplanResult replan(const core::SystemModel& sys,
                                  const power::PowerBudget& budget,
                                  const noc::FaultSet& faults, const SearchOptions& options,
                                  const core::PairTable& pristine);

/// Mid-timeline replan: plan only the modules whose `candidates` bit
/// (by module id - 1) is still set — work completed in earlier epochs
/// is not redone — with `pretested` processors (ascending, unique, not
/// dead) serving from instant 0.  `table` must already be the PairTable
/// of `sys` under `faults` (the timeline engine chains one master table
/// across events via apply_faults and hands in a copy per epoch);
/// `pairs_rebuilt` is reported through, it is not recomputed here.
/// Non-candidate modules appear in none of the result's module lists:
/// dead/untestable/planned classify the candidates only, so coverage
/// accounting across epochs never double-counts a module.  Inherits the
/// full determinism contract; options.warm_start_order seeds chain 0.
/// The whole-plan replans above are this with every candidate bit set
/// and nothing pretested.
[[nodiscard]] ReplanResult replan_subset(const core::SystemModel& sys,
                                         const power::PowerBudget& budget,
                                         const noc::FaultSet& faults,
                                         const SearchOptions& options,
                                         core::PairTable&& table, std::size_t pairs_rebuilt,
                                         const std::vector<bool>& candidates,
                                         std::vector<int> pretested);

}  // namespace nocsched::search
