#pragma once
// The pluggable order-search strategy interface.
//
// A strategy explores the space of module priority orders (permutations
// that respect the planner's shuffle tiers) looking for a lower
// makespan.  It never plans schedules itself: the search::Driver owns
// the evaluation loop and calls back into the strategy to (a) seed each
// independent chain with a starting order, (b) propose the next order
// to evaluate, and (c) decide whether an evaluated proposal replaces
// the chain's incumbent.  Keeping the loop in the driver means every
// strategy inherits the same determinism contract for free: chains are
// independent, seeded by (seed, chain index), and reduced serially, so
// any strategy is bit-identical at every job count.
//
// Strategies are stateless and const — one instance is shared by all
// chains on all threads.  All mutable per-chain state lives in
// ChainState, which the driver owns and threads through the callbacks.

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/scheduler.hpp"
#include "search/eval_context.hpp"

namespace nocsched::search {

/// The built-in strategies.
enum class StrategyKind {
  kRestart,  ///< independent random restarts (PR 3's multistart, exactly)
  kAnneal,   ///< simulated annealing with a seeded reheat schedule
  kLocal,    ///< greedy first-improvement pairwise-swap descent
};

/// "restart" | "anneal" | "local".
[[nodiscard]] std::string_view to_string(StrategyKind kind);

/// Inverse of to_string; throws nocsched::Error on unknown names.
[[nodiscard]] StrategyKind parse_strategy(std::string_view name);

/// Mutable per-chain search state.  The driver owns the incumbent and
/// the bookkeeping counters; the trailing scratch fields belong to the
/// strategy (their meaning is strategy-specific and other components
/// must not read them).
struct ChainState {
  std::vector<int> order;         ///< incumbent order (already evaluated)
  std::uint64_t makespan = 0;     ///< incumbent's makespan
  std::uint64_t budget = 0;       ///< order evaluations allotted to this chain
  std::uint64_t step = 0;         ///< proposals made so far
  std::uint64_t since_accept = 0;  ///< consecutive proposals not adopted

  // Strategy scratch.  anneal: temperature/t0/cool; local: cursor into
  // the within-tier swap-pair list.
  double temperature = 0.0;
  double t0 = 0.0;
  double cool = 1.0;
  std::size_t cursor = 0;
};

/// One order the driver should evaluate next.
struct Proposal {
  std::vector<int> order;
  /// When true the driver adopts the order unconditionally (a fresh
  /// descent start / diversification jump), bypassing accept().
  bool reset = false;
};

class Strategy {
 public:
  virtual ~Strategy() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Number of independent chains an iteration budget of `iters` order
  /// evaluations is split into.  Must be in [1, iters] for iters > 0;
  /// a pure function of `iters` so the split never depends on the job
  /// count.
  [[nodiscard]] virtual std::uint64_t chains(std::uint64_t iters) const = 0;

  /// Fill `state.order` and any scratch fields for chain `chain`.
  /// `warm_order` is the order the driver's deterministic pass planned:
  /// the base priority order, or the projection of
  /// SearchOptions::warm_start_order when a caller injected one (the
  /// timeline replanner seeds each replan from the previous best
  /// surviving order this way).  Returns true when the chain
  /// warm-starts from exactly that order: the driver then seeds the
  /// incumbent's makespan from its already-evaluated deterministic pass
  /// instead of spending a budgeted evaluation re-deriving it.  Return
  /// false for any other order (even one that happens to coincide with
  /// it — e.g. a restart shuffle on a tiny system — so evaluation
  /// counts stay a pure function of the options).
  virtual bool init_chain(ChainState& state, const EvalContext& ctx,
                          const std::vector<int>& warm_order, std::uint64_t chain,
                          Rng& rng) const = 0;

  /// Next order to evaluate, or nullopt to end the chain early (a
  /// converged descent with nothing left to try).  May update scratch
  /// fields (cool a temperature, advance a sweep cursor, reheat).
  [[nodiscard]] virtual std::optional<Proposal> propose(ChainState& state,
                                                        const EvalContext& ctx,
                                                        Rng& rng) const = 0;

  /// Does a (non-reset) proposal whose evaluated makespan is `proposed`
  /// replace the incumbent?  Called once per evaluated proposal.
  [[nodiscard]] virtual bool accept(const ChainState& state, std::uint64_t proposed,
                                    Rng& rng) const = 0;

  /// The pricing cutoff of the next (non-reset) proposal: a makespan
  /// from which accept() rejects without drawing from `rng`.  Such a
  /// proposal cannot beat the chain's best either (that is never worse
  /// than the incumbent), so the driver lets the kernel stop pricing it
  /// there (EvalContext::evaluate).  The default, core::kNoCutoff,
  /// prices every proposal in full.
  [[nodiscard]] virtual std::uint64_t cutoff(const ChainState& /*state*/) const {
    return core::kNoCutoff;
  }
};

/// The built-in strategy for `kind`; the returned object is immutable
/// and safe to share across threads.
[[nodiscard]] const Strategy& strategy_for(StrategyKind kind);

}  // namespace nocsched::search
