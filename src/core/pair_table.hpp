#pragma once
// Precomputed (source, sink) interface pairs per module.
//
// Pair legality and session cost depend only on the system model —
// never on planner state or time — yet the planner used to rebuild and
// re-sort the same candidate list (and re-derive the same SessionPlan)
// on every probe of every module.  This table enumerates each module's
// legal pairs once, nearest-first (total route hops, then source index,
// then sink index — exactly the order the planner's per-call
// enumeration produced), with the session plan attached.  One table
// serves any number of planner runs over the same system, including
// concurrent multistart restarts: it is immutable while shared.
//
// Fault-aware replanning builds the same table over a degraded system:
// pairs whose endpoints died or whose routes cannot survive the fault
// set disappear, and surviving pairs are priced over their fault-aware
// (possibly detoured) routes.  apply_faults is the incremental path —
// only modules whose existing pairs touch the fault set are
// re-enumerated, and the result is bit-identical to a from-scratch
// degraded build (asserted by the tests/fault property suite).

#include <cstdint>
#include <span>
#include <vector>

#include "core/session_model.hpp"
#include "core/system_model.hpp"
#include "noc/fault.hpp"

namespace nocsched::core {

/// One legal (source, sink) choice for a module, with its precomputed
/// session cost.  `source`/`sink` index SystemModel::endpoints().
struct PairChoice {
  std::size_t source = 0;
  std::size_t sink = 0;
  int hops = 0;      ///< source->core + core->sink route hops
  SessionPlan plan;  ///< time-invariant cost of this session

  friend bool operator==(const PairChoice&, const PairChoice&) = default;
};

class PairTable {
 public:
  /// Pairs of the pristine system (XY routes, every endpoint alive).
  explicit PairTable(const SystemModel& sys);

  /// Pairs of the degraded system: from-scratch build under `faults`.
  PairTable(const SystemModel& sys, const noc::FaultSet& faults);

  /// Incrementally degrade this table to `faults`: re-enumerate only
  /// the modules whose current pairs touch the fault set (a failed
  /// endpoint, a failed router on either route, the module's own or an
  /// endpoint's router, or the module itself dying).  Requires the
  /// table to have been built from `sys` under a subset of `faults`
  /// (the pristine table qualifies); afterwards the table is
  /// bit-identical to PairTable(sys, faults).  Returns the number of
  /// modules re-enumerated — the quantity the incremental path saves.
  std::size_t apply_faults(const SystemModel& sys, const noc::FaultSet& faults);

  /// Legal pairs for `module_id`, nearest-first.
  [[nodiscard]] std::span<const PairChoice> pairs(int module_id) const {
    return by_module_[index_of(module_id)];
  }

  /// True when the module has at least one legal pair (always, on a
  /// pristine feasible system; under faults a module with no surviving
  /// pair is untestable and must be excluded from planning).
  [[nodiscard]] bool has_pairs(int module_id) const;

  /// Smallest session power over the module's pairs (infinity when the
  /// module has no legal pair) — the feasibility-precheck input.
  [[nodiscard]] double cheapest_power(int module_id) const;

  /// Endpoint bitmask of each of the module's pairs, parallel to
  /// pairs(): bit `source` | bit `sink`.  The planning kernel screens a
  /// whole module against the endpoints free in a pass with these
  /// before probing any pair.  Exact only when the system has at most
  /// 64 endpoints (the kernel skips the screen otherwise); an endpoint
  /// index >= 64 contributes no bit.
  [[nodiscard]] std::span<const std::uint64_t> endpoint_masks(int module_id) const {
    return masks_[index_of(module_id)];
  }

  friend bool operator==(const PairTable&, const PairTable&) = default;

  /// Which modules the planner can actually schedule from this table
  /// under a peak-power limit, indexed by module id - 1.  A module is
  /// testable when it has at least one *usable* pair: session power
  /// within `power_limit`, and every processor endpoint itself
  /// testable — a processor serves only once its own test ran, so
  /// testability grows from the modules the ATE ports can serve alone
  /// (computed as a least fixpoint: processors that could only be
  /// served through each other never bootstrap, and neither do the
  /// cores they exclusively serve).  The fault-aware replanner plans
  /// exactly this set and reports the complement instead of letting the
  /// planner get stuck.
  [[nodiscard]] std::vector<bool> testable_modules(const SystemModel& sys,
                                                   double power_limit) const;

  /// As above for mid-timeline replans: processors named in `pretested`
  /// (ascending module ids) already passed their own test in an earlier
  /// epoch, so they serve unconditionally — a pair through a pretested
  /// processor is usable even though that processor's test is absent
  /// from the current plan.  A pretested processor that later died
  /// contributes nothing (apply_faults already dropped its pairs).
  [[nodiscard]] std::vector<bool> testable_modules(const SystemModel& sys, double power_limit,
                                                   std::span<const int> pretested) const;

 private:
  // Inline: the planning kernel looks pairs up on every probe.
  [[nodiscard]] std::size_t index_of(int module_id) const {
    if (module_id < 1 || static_cast<std::size_t>(module_id) > by_module_.size()) {
      unknown_module(module_id);
    }
    return static_cast<std::size_t>(module_id - 1);
  }
  [[noreturn]] static void unknown_module(int module_id);
  void build_module(const SystemModel& sys, const itc02::Module& m,
                    const noc::FaultSet* faults);
  /// Refresh the per-module summaries (cheapest_, masks_) of module
  /// index `i` from its pair list.
  void summarize(std::size_t i);

  std::vector<std::vector<PairChoice>> by_module_;  // module id - 1 (ids are 1..N)
  std::vector<double> cheapest_;
  std::vector<std::vector<std::uint64_t>> masks_;  // parallel to by_module_
};

}  // namespace nocsched::core
