#pragma once
// Online fault streams: timed fault events for mid-execution replans.
//
// PR 5's replanner answers "the mesh just degraded — what now?" for a
// single fault set.  A FaultStream generalizes that to a *timeline*: K
// events, each an increment of newly-broken silicon with an absolute
// injection cycle, strictly ordered in time.  The sim::timeline engine
// drives one warm-started incremental replan per event, chaining
// PairTable::apply_faults across the growing cumulative fault set.
//
// Streams come from two places, both deterministic:
//   * a JSONL file (one event per line) — the CLI `--fault-stream-file`
//     input, read by engine::load_fault_stream with the request parser's
//     scanner and fault resolver (engine/request.hpp);
//   * a seeded generator via random_fault_stream — the CLI
//     `--fault-stream K` mode and the bench/fault_stream scenarios.

#include <cstdint>
#include <vector>

#include "core/system_model.hpp"
#include "noc/fault.hpp"

namespace nocsched::search {

/// Injection cycles above this are rejected at parse time: far beyond
/// any real makespan, yet small enough that epoch-origin arithmetic
/// (origin + observed end) can never overflow a uint64.
inline constexpr std::uint64_t kMaxEventCycle = std::uint64_t{1} << 62;

/// One timed degradation: at absolute cycle `cycle`, everything in
/// `increment` breaks (on top of whatever broke earlier).
struct FaultEvent {
  std::uint64_t cycle = 0;
  noc::FaultSet increment;
};

/// A validated event sequence: cycles strictly increasing, every
/// increment non-empty and resolved against one concrete system.
struct FaultStream {
  std::vector<FaultEvent> events;

  /// Union of the first `upto` increments (upto == events.size() gives
  /// the fully-degraded system).  FaultSet dedups, so increments that
  /// re-break already-broken silicon merge harmlessly.
  [[nodiscard]] noc::FaultSet cumulative(std::size_t upto) const;
};

/// Merge every fault of `increment` into `faults`.
void merge_faults(noc::FaultSet& faults, const noc::FaultSet& increment);

/// A seeded random stream of `k` events over `sys`: k distinct
/// injection cycles in [1, max(horizon, k)] and one random fault
/// scenario per event (noc::random_fault_scenario, re-drawn up to a few
/// times when a draw only re-breaks already-broken silicon).  A pure
/// function of (sys, k, seed, horizon).
[[nodiscard]] FaultStream random_fault_stream(const core::SystemModel& sys, std::size_t k,
                                              std::uint64_t seed, std::uint64_t horizon);

}  // namespace nocsched::search
