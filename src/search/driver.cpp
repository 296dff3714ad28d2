#include "search/driver.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/trace.hpp"

namespace nocsched::search {

namespace {

/// The per-run reduction totals, before they become a MetricsSnapshot.
struct RunTotals {
  std::string strategy;
  std::uint64_t iters = 0;
  std::uint64_t chains = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t proposals = 0;
  std::uint64_t accepted = 0;
  std::uint64_t resets = 0;
  std::uint64_t improvements = 0;
  std::uint64_t converged_chains = 0;
  std::uint64_t first_makespan = 0;
  std::uint64_t best_makespan = 0;
};

/// Build the per-run snapshot and, when the global registry is
/// collecting, publish the same totals there (counters accumulate
/// across runs; gauges and info reflect the latest run).
obs::MetricsSnapshot publish(const RunTotals& t) {
  obs::MetricsSnapshot snap;
  snap.info["search.strategy"] = t.strategy;
  snap.gauges["search.iterations"] = static_cast<std::int64_t>(t.iters);
  snap.gauges["search.chains"] = static_cast<std::int64_t>(t.chains);
  snap.gauges["search.first_makespan"] = static_cast<std::int64_t>(t.first_makespan);
  snap.gauges["search.best_makespan"] = static_cast<std::int64_t>(t.best_makespan);
  snap.counters["search.evaluations"] = t.evaluations;
  snap.counters["search.proposals"] = t.proposals;
  snap.counters["search.accepted"] = t.accepted;
  snap.counters["search.resets"] = t.resets;
  snap.counters["search.improvements"] = t.improvements;
  snap.counters["search.converged_chains"] = t.converged_chains;

  obs::MetricsRegistry& reg = obs::registry();
  if (reg.enabled()) {
    // References resolved once: the registry never destroys metrics.
    static obs::Counter& runs = reg.counter("search.runs");
    static obs::Counter& evaluations = reg.counter("search.evaluations");
    static obs::Counter& proposals = reg.counter("search.proposals");
    static obs::Counter& accepted = reg.counter("search.accepted");
    static obs::Counter& resets = reg.counter("search.resets");
    static obs::Counter& improvements = reg.counter("search.improvements");
    static obs::Counter& converged = reg.counter("search.converged_chains");
    static obs::Gauge& iterations = reg.gauge("search.iterations");
    static obs::Gauge& chains = reg.gauge("search.chains");
    static obs::Gauge& first_makespan = reg.gauge("search.first_makespan");
    static obs::Gauge& best_makespan = reg.gauge("search.best_makespan");
    runs.inc();
    evaluations.add(t.evaluations);
    proposals.add(t.proposals);
    accepted.add(t.accepted);
    resets.add(t.resets);
    improvements.add(t.improvements);
    converged.add(t.converged_chains);
    iterations.set(static_cast<std::int64_t>(t.iters));
    chains.set(static_cast<std::int64_t>(t.chains));
    first_makespan.set(static_cast<std::int64_t>(t.first_makespan));
    best_makespan.set(static_cast<std::int64_t>(t.best_makespan));
    reg.set_info("search.strategy", t.strategy);
  }
  return snap;
}

/// Everything one chain reports back to the reduction.
struct ChainOutcome {
  std::vector<int> best_order;  ///< filled only when record_best_order
  std::uint64_t best_makespan = 0;
  std::uint64_t evals = 0;
  std::uint64_t proposals = 0;
  std::uint64_t accepted = 0;
  std::uint64_t resets = 0;
  bool converged = false;  ///< propose() ended the chain before its budget
};

ChainOutcome run_chain(const EvalContext& ctx, const Strategy& strategy,
                       const std::vector<int>& warm_order, std::uint64_t seed,
                       std::uint64_t chain, std::uint64_t budget,
                       std::uint64_t base_makespan, bool record_best_order) {
  Rng rng = EvalContext::chain_rng(seed, chain);
  ChainState state;
  state.budget = budget;
  const bool warm_start = strategy.init_chain(state, ctx, warm_order, chain, rng);

  ChainOutcome out;
  if (warm_start) {
    // The chain starts at the deterministic pass's order, whose
    // makespan the driver already knows — don't spend a budgeted
    // evaluation re-deriving it.
    state.makespan = base_makespan;
  } else {
    // A chain whose whole budget is this one evaluation (every restart
    // chain) reports just its makespan, and the serial reduction takes
    // only chains strictly better than the deterministic pass: at or
    // above base_makespan its exact value changes nothing.
    state.makespan =
        ctx.evaluate(state.order, budget == 1 ? base_makespan : core::kNoCutoff);
    out.evals = 1;
  }
  if (record_best_order) out.best_order = state.order;
  out.best_makespan = state.makespan;

  while (out.evals < budget) {
    std::optional<Proposal> p = strategy.propose(state, ctx, rng);
    if (!p) {
      out.converged = true;
      break;
    }
    ++state.step;
    ++out.proposals;
    // Resets are adopted whatever they cost, so they are priced in full.
    const std::uint64_t cutoff = p->reset ? core::kNoCutoff : strategy.cutoff(state);
    const std::uint64_t makespan = ctx.evaluate(p->order, cutoff);
    ++out.evals;
    if (makespan < out.best_makespan) {
      NOCSCHED_ASSERT(makespan < cutoff);  // an improvement was priced exactly
      out.best_makespan = makespan;
      if (record_best_order) out.best_order = p->order;
    }
    if (p->reset) {
      state.order = std::move(p->order);
      state.makespan = makespan;
      state.since_accept = 0;
      ++out.resets;
    } else if (strategy.accept(state, makespan, rng)) {
      NOCSCHED_ASSERT(makespan < cutoff);  // an accepted proposal was priced exactly
      state.order = std::move(p->order);
      state.makespan = makespan;
      state.since_accept = 0;
      ++out.accepted;
    } else {
      ++state.since_accept;
    }
  }
  return out;
}

}  // namespace

SearchResult search_orders(const core::SystemModel& sys, const power::PowerBudget& budget,
                           const SearchOptions& options) {
  return search_orders(EvalContext(sys, budget), options);
}

SearchResult search_orders(const EvalContext& ctx, const SearchOptions& options) {
  const obs::Span span("search");
  const Strategy& strategy = strategy_for(options.strategy);

  // The deterministic pass plans the warm order when one was injected
  // (projected onto this context's plannable modules), the base
  // priority order otherwise — so an unset warm_start_order is
  // bit-identical to the pre-warm-start driver.
  const std::vector<int> root = options.warm_start_order.empty()
                                    ? ctx.base_order()
                                    : ctx.projected_order(options.warm_start_order);
  SearchResult result;
  result.best = ctx.plan(root);
  result.first_makespan = result.best.makespan;
  RunTotals totals;
  totals.strategy = std::string(strategy.name());
  totals.iters = options.iters;
  totals.evaluations = 1;
  totals.first_makespan = result.first_makespan;
  totals.best_makespan = result.best.makespan;
  if (options.iters == 0) {
    result.metrics = publish(totals);
    return result;
  }

  const std::uint64_t chains =
      std::clamp<std::uint64_t>(strategy.chains(options.iters), 1, options.iters);
  totals.chains = chains;

  // Budget split: iters / chains each, the remainder spread over the
  // lowest chain indices — a pure function of (iters, chains).
  const std::uint64_t base = options.iters / chains;
  const std::uint64_t extra = options.iters % chains;

  // With few chains (anneal/local cap at 8) keeping each chain's best
  // order costs next to nothing, so record directly; with one chain
  // per iteration (restart) that would hold every shuffle's best alive
  // at once, so store only makespans and replay the one winning chain
  // — its single evaluation — to recover the order, as PR 3 did.
  const bool record_best_order = chains <= 64;
  auto budget_of = [&](std::uint64_t c) { return base + (c < extra ? 1 : 0); };
  std::vector<ChainOutcome> outcomes(chains);
  parallel_for(chains, options.jobs, [&](std::size_t c) {
    const obs::Span chain_span("search.chain");
    outcomes[c] = run_chain(ctx, strategy, root, options.seed, c, budget_of(c),
                            result.first_makespan, record_best_order);
  });

  // Serial reduction by (makespan, chain index): strictly-better chains
  // bump the improvement counter, exactly like PR 3's multistart scan.
  std::uint64_t best_makespan = result.first_makespan;
  std::size_t best_chain = chains;  // sentinel: the deterministic pass wins
  for (std::size_t c = 0; c < chains; ++c) {
    const ChainOutcome& out = outcomes[c];
    totals.evaluations += out.evals;
    totals.proposals += out.proposals;
    totals.accepted += out.accepted;
    totals.resets += out.resets;
    if (out.converged) ++totals.converged_chains;
    if (out.best_makespan < best_makespan) {
      best_makespan = out.best_makespan;
      best_chain = c;
      ++totals.improvements;
    }
  }
  if (best_chain < chains) {
    if (!record_best_order) {
      // Chains are deterministic, so replaying the winner (with order
      // recording on) recovers its best order.
      outcomes[best_chain] = run_chain(ctx, strategy, root, options.seed, best_chain,
                                       budget_of(best_chain), result.first_makespan,
                                       /*record_best_order=*/true);
      NOCSCHED_ASSERT(outcomes[best_chain].best_makespan == best_makespan);
    }
    result.best = ctx.plan(outcomes[best_chain].best_order);
    NOCSCHED_ASSERT(result.best.makespan == best_makespan);
  }
  totals.best_makespan = result.best.makespan;
  result.metrics = publish(totals);
  return result;
}

}  // namespace nocsched::search
