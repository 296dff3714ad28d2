#pragma once
// Deterministic parallel driver for order search.
//
// The driver generalizes PR 3's multistart determinism scheme to any
// Strategy: the iteration budget is split into independent chains, each
// chain's RNG stream is seeded by (seed, chain index) alone, chains run
// on any number of threads via parallel_for, and the per-chain bests
// are reduced serially by (makespan, chain index).  The result is a
// pure function of (system, budget, options) — bit-identical at every
// job count, asserted across strategies by the search test suite.
//
// The deterministic priority-order pass always runs first (it is the
// baseline every strategy must beat and the answer when iters == 0);
// the iteration budget counts the order evaluations spent beyond it.

#include <cstdint>
#include <vector>

#include "core/schedule.hpp"
#include "core/system_model.hpp"
#include "obs/metrics.hpp"
#include "power/budget.hpp"
#include "search/strategy.hpp"

namespace nocsched::search {

struct SearchOptions {
  StrategyKind strategy = StrategyKind::kRestart;
  /// Order evaluations beyond the deterministic pass (0 = greedy only).
  std::uint64_t iters = 0;
  std::uint64_t seed = 0x5EED;
  /// Threads running chains (0 = one per hardware thread; <= 1 serial).
  unsigned jobs = 1;
  /// Warm-start order for the deterministic pass (and for chain 0 of
  /// the strategies that warm-start).  Empty = unset: the pass plans
  /// the context's base priority order, the pre-existing behaviour.
  /// When set, the order is projected onto the context's plannable
  /// modules (EvalContext::projected_order) first, so a caller may pass
  /// the surviving order of a previous epoch verbatim — modules that
  /// have since died or completed simply drop out.  The timeline
  /// replanner seeds each replan from the previous best this way.
  std::vector<int> warm_start_order;
};

/// Per-run record of what the search did, emitted by report::*
/// alongside the schedule so runs are comparable ("was that makespan 10
/// evaluations or 10,000?").  Filled from the serial chain reduction —
/// a pure function of (system, budget, options), independent of --jobs
/// and of whether the global obs registry is collecting.
///
///   info   search.strategy
///   gauges search.iterations search.chains search.first_makespan
///          search.best_makespan
///   ctrs   search.evaluations search.proposals search.accepted
///          search.resets search.improvements search.converged_chains
struct SearchResult {
  core::Schedule best;
  std::uint64_t first_makespan = 0;
  obs::MetricsSnapshot metrics;
};

/// Search for a low-makespan order of `sys` under `budget`.  Every
/// candidate order is priced by makespan alone (EvalContext::evaluate)
/// on the same planner; the best schedule is planned in full once,
/// from the winning chain's order (and is validated by callers exactly
/// like a greedy plan).
[[nodiscard]] SearchResult search_orders(const core::SystemModel& sys,
                                         const power::PowerBudget& budget,
                                         const SearchOptions& options);

/// As above over a caller-built EvalContext — the fault-aware replanner
/// supplies a degraded context (masked eligibility, surviving modules
/// only) and inherits the same determinism contract.
[[nodiscard]] SearchResult search_orders(const EvalContext& ctx, const SearchOptions& options);

}  // namespace nocsched::search
