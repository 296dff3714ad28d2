// The order search's per-move evaluation property: every order the
// search prices through EvalContext — a within-tier swap, a compound
// move, a whole-tier reshuffle (the reset move), off an incumbent that
// is replaced now and then — is *bit-identical* to the reference
// planner's (tests/support oracle) plan of the same order: evaluate()
// returns the oracle's makespan, and plan() its sessions, makespan and
// floating-point peak power, bit for bit.  Asserted over the builtin
// paper systems and random SoCs across every planner parameter variant,
// mid-timeline contexts with pretested processors, plus the search-level
// contract that --jobs {1, 2, 8} stay bit-identical under a power limit.
//
// The random SoCs include systems built so that session boundaries
// coincide (twin cores on small meshes, tight power limits): there the
// first-available kernel's pass ledger sums same-instant ends and starts
// in the order the oracle's map-based envelopes do, or a peak power or
// a fits decision differs in its last bit.
//
// Every priced order is also priced under cutoffs below, at and above
// its oracle makespan: evaluate(order, cutoff) is the oracle's makespan
// when that is below the cutoff, and otherwise lies in [cutoff, oracle]
// (the kernel's residual-bound pruning may stop anywhere in between).
// The local strategy, which prices its swaps with the incumbent as the
// cutoff, must reach exactly the counters and winner of a replica
// driver loop that prices every proposal in full.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/pair_table.hpp"
#include "core/scheduler.hpp"
#include "noc/fault.hpp"
#include "obs/metrics.hpp"
#include "search/driver.hpp"
#include "search/eval_context.hpp"
#include "search/strategy.hpp"
#include "support/random_system.hpp"
#include "support/reference_planner.hpp"

namespace nocsched::search {
namespace {

core::SystemModel paper(const std::string& soc, int procs) {
  return core::SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, procs,
                                         core::PlannerParams::paper());
}

using support::params_variant;
using support::random_system;

void expect_schedules_identical(const core::Schedule& a, const core::Schedule& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  // Bit for bit: the same floating-point operations in the same order.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.peak_power), std::bit_cast<std::uint64_t>(b.peak_power))
      << a.peak_power << " vs " << b.peak_power;
  EXPECT_EQ(a.power_limit, b.power_limit);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    EXPECT_EQ(a.sessions[i], b.sessions[i]) << "session " << i;
  }
}

/// A random within-tier swap of `order` (the anneal/local move shape).
void random_swap(const EvalContext& ctx, Rng& rng, std::vector<int>& order) {
  const auto& swappable = ctx.swappable_positions();
  if (swappable.empty()) return;
  const std::size_t a = swappable[rng.below(swappable.size())];
  const EvalContext::Segment& seg = ctx.segment_of(a);
  std::size_t b = seg.begin + rng.below(seg.size() - 1);
  if (b >= a) ++b;
  std::swap(order[a], order[b]);
}

/// The pricing-cutoff contract for one order whose oracle makespan is
/// `makespan`, over cutoffs below, at and above it, and no cutoff.
void expect_cutoff_contract(const EvalContext& ctx, const std::vector<int>& order,
                            std::uint64_t makespan) {
  const std::uint64_t m = makespan;
  for (const std::uint64_t cutoff : {std::uint64_t{0}, m / 2, m - m / 8, m - m / 64,
                                     m > 0 ? m - 1 : 0, m, m + 1, 2 * m, core::kNoCutoff}) {
    const std::uint64_t got = ctx.evaluate(order, cutoff);
    if (m < cutoff) {
      ASSERT_EQ(got, m) << "cutoff " << cutoff;
    } else {
      ASSERT_GE(got, cutoff) << "oracle " << m;
      ASSERT_LE(got, m) << "cutoff " << cutoff;
    }
  }
}

using OraclePlan = std::function<core::Schedule(const std::vector<int>&)>;

/// The reference planner's plan of a full order over `ctx`'s inputs.
OraclePlan full_order_oracle(const EvalContext& ctx, const power::PowerBudget& budget) {
  return [&ctx, budget](const std::vector<int>& order) {
    return core::oracle::plan_tests_with_order(ctx.system(), budget, order, ctx.pair_table());
  };
}

/// Drives `steps` search moves from the context's base order, asserting
/// bit-identity of evaluate() and plan() with the oracle at every step.
void run_sequence(const EvalContext& ctx, const OraclePlan& oracle_plan, Rng& rng, int steps) {
  std::vector<int> incumbent = ctx.base_order();
  const std::uint64_t base = oracle_plan(incumbent).makespan;
  ASSERT_EQ(ctx.evaluate(incumbent), base);
  expect_cutoff_contract(ctx, incumbent, base);
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::vector<int> order = incumbent;
    if (rng.chance(0.1)) {
      order = ctx.shuffled_order(rng);  // reset move: a whole-tier reshuffle
    } else {
      random_swap(ctx, rng, order);
      if (rng.chance(0.3)) random_swap(ctx, rng, order);  // compound move
    }
    const core::Schedule want = oracle_plan(order);
    ASSERT_EQ(ctx.evaluate(order), want.makespan);
    expect_cutoff_contract(ctx, order, want.makespan);
    if (::testing::Test::HasFatalFailure()) return;
    expect_schedules_identical(ctx.plan(order), want);
    if (::testing::Test::HasFailure()) return;
    if (rng.chance(0.4)) incumbent = order;
  }
}

/// Where the pass ledger's fold order shows in a plan: instants at which
/// two or more sessions end and another starts, instants at which three
/// or more end (their order changes the sum), and zero-hop legs.
struct BoundaryCoverage {
  int coincident_instants = 0;
  int three_end_instants = 0;
  int zero_hop_legs = 0;

  void count(const core::Schedule& s) {
    std::map<std::uint64_t, std::pair<int, int>> at;  // instant -> (ends, starts)
    for (const core::Session& session : s.sessions) {
      ++at[session.end].first;
      ++at[session.start].second;
      zero_hop_legs += static_cast<int>(session.path_in.empty()) +
                       static_cast<int>(session.path_out.empty());
    }
    for (const auto& [instant, n] : at) {
      if (n.first >= 2 && n.second >= 1) ++coincident_instants;
      if (n.first >= 3) ++three_end_instants;
    }
  }

  /// `oracle_plan`, counting every plan it returns.
  OraclePlan counting(OraclePlan oracle_plan) {
    return [this, oracle_plan = std::move(oracle_plan)](const std::vector<int>& order) {
      core::Schedule s = oracle_plan(order);
      count(s);
      return s;
    };
  }
};

/// A mid-timeline epoch: every processor either pretested (serves from
/// 0, not planned) or a candidate, and some plain cores already tested
/// in an earlier epoch.
struct MidTimeline {
  std::vector<int> pretested;
  std::vector<bool> candidates;  ///< by module id - 1
};

MidTimeline random_mid_timeline(const core::SystemModel& sys, Rng& rng, double pretest_chance) {
  MidTimeline m{{}, std::vector<bool>(sys.soc().modules.size(), false)};
  for (const itc02::Module& mod : sys.soc().modules) {
    if (mod.is_processor && rng.chance(pretest_chance)) {
      m.pretested.push_back(mod.id);
    } else if (mod.is_processor || !rng.chance(0.2)) {
      m.candidates[static_cast<std::size_t>(mod.id - 1)] = true;
    }
  }
  return m;
}

/// run_sequence over a random mid-timeline context of `sys` under
/// `budget`, counting the oracle's plans into `coverage` when given.
void run_subset_sequence(const core::SystemModel& sys, const power::PowerBudget& budget,
                         Rng& rng, int steps, double pretest_chance = 0.5,
                         BoundaryCoverage* coverage = nullptr) {
  const MidTimeline mid = random_mid_timeline(sys, rng, pretest_chance);
  const EvalContext ctx(sys, budget, core::PairTable(sys), noc::FaultSet{}, mid.candidates,
                        mid.pretested);
  OraclePlan oracle_plan = [&](const std::vector<int>& order) {
    return core::oracle::plan_tests_subset(sys, budget, order, ctx.pair_table(), mid.pretested);
  };
  if (coverage != nullptr) oracle_plan = coverage->counting(std::move(oracle_plan));
  run_sequence(ctx, oracle_plan, rng, steps);
}

TEST(DeltaEvalProperty, BuiltinSystemsSwapSequencesBitIdentical) {
  for (const char* soc : {"d695", "p22810", "p93791"}) {
    const core::SystemModel sys = paper(soc, soc == std::string("d695") ? 6 : 8);
    for (const bool constrained : {false, true}) {
      SCOPED_TRACE(std::string(soc) + (constrained ? " constrained" : " unconstrained"));
      const power::PowerBudget budget =
          constrained ? power::PowerBudget::fraction_of_total(sys.soc(), 0.5)
                      : power::PowerBudget::unconstrained();
      const EvalContext ctx(sys, budget);
      Rng rng = stream_rng(0xDE17A, constrained ? 1 : 0);
      run_sequence(ctx, full_order_oracle(ctx, budget), rng, 50);
    }
  }
}

TEST(DeltaEvalProperty, RandomSystemsAllParamVariants) {
  BoundaryCoverage coverage;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Rng rng = stream_rng(0x5EED0D, seed);
    const core::SystemModel sys = random_system(rng, params_variant(seed));
    SCOPED_TRACE(seed);
    power::PowerBudget budget = power::PowerBudget::unconstrained();
    if (rng.chance(0.5)) budget = power::PowerBudget::fraction_of_total(sys.soc(), 0.8);
    const EvalContext ctx(sys, budget);
    run_sequence(ctx, full_order_oracle(ctx, budget), rng, 30);

    // Coincident boundaries under the same variant: twin cores, zero-hop
    // legs, power limits of 40-100%, whole-plan and mid-timeline
    // contexts.  Most twin ends coincide where pretested
    // processors start together at instant 0.  Many short sequences
    // over many systems: a misordered same-instant sum shows in a peak
    // power only now and then.
    for (std::uint64_t k = 0; k < 32; ++k) {
      Rng twins = stream_rng(0xC01C1DE, 16 * k + seed);
      const core::SystemModel tsys = support::coincident_system(twins, params_variant(seed));
      const power::PowerBudget tight =
          power::PowerBudget::fraction_of_total(tsys.soc(), 0.4 + 0.6 * twins.uniform01());
      SCOPED_TRACE("coincident " + std::to_string(k) + " limit " + std::to_string(tight.limit));
      const EvalContext tctx(tsys, tight);
      run_sequence(tctx, coverage.counting(full_order_oracle(tctx, tight)), twins, 5);
      run_subset_sequence(tsys, tight, twins, 5, 0.8, &coverage);
      if (HasFailure()) return;
    }
  }
  // The coincident systems reach the boundaries they are there for.
  EXPECT_GT(coverage.coincident_instants, 1000);
  EXPECT_GT(coverage.three_end_instants, 500);
  EXPECT_GT(coverage.zero_hop_legs, 1000);
}

TEST(DeltaEvalProperty, SubsetOrdersWithPretestedProcessors) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng = stream_rng(0x5B5E7, seed);
    const core::SystemModel sys = random_system(rng, params_variant(seed % 2 ? 1 : 0));
    SCOPED_TRACE(seed);
    run_subset_sequence(sys, power::PowerBudget::unconstrained(), rng, 20);
  }
}

/// What a local search reaches when every proposal is priced in full: a
/// replica of the driver's chain loop and serial reduction without any
/// cutoff.
struct FullPriceTotals {
  std::uint64_t best_makespan = 0;
  std::uint64_t evaluations = 1;  // the deterministic pass
  std::uint64_t proposals = 0;
  std::uint64_t accepted = 0;
  std::uint64_t resets = 0;
  std::uint64_t improvements = 0;
};

FullPriceTotals full_price_local(const EvalContext& ctx, const SearchOptions& options) {
  const Strategy& strategy = strategy_for(StrategyKind::kLocal);
  FullPriceTotals totals;
  const std::uint64_t base_makespan = ctx.evaluate(ctx.base_order());
  totals.best_makespan = base_makespan;
  const std::uint64_t chains = std::clamp<std::uint64_t>(strategy.chains(options.iters), 1,
                                                         options.iters);
  for (std::uint64_t c = 0; c < chains; ++c) {
    const std::uint64_t budget = options.iters / chains + (c < options.iters % chains ? 1 : 0);
    Rng rng = EvalContext::chain_rng(options.seed, c);
    ChainState state;
    state.budget = budget;
    std::uint64_t evals = 0;
    if (strategy.init_chain(state, ctx, ctx.base_order(), c, rng)) {
      state.makespan = base_makespan;
    } else {
      state.makespan = ctx.evaluate(state.order);
      evals = 1;
    }
    std::uint64_t best = state.makespan;
    while (evals < budget) {
      std::optional<Proposal> p = strategy.propose(state, ctx, rng);
      if (!p) break;
      ++state.step;
      ++totals.proposals;
      const std::uint64_t makespan = ctx.evaluate(p->order);
      ++evals;
      best = std::min(best, makespan);
      if (p->reset) {
        state.order = std::move(p->order);
        state.makespan = makespan;
        state.since_accept = 0;
        ++totals.resets;
      } else if (strategy.accept(state, makespan, rng)) {
        state.order = std::move(p->order);
        state.makespan = makespan;
        state.since_accept = 0;
        ++totals.accepted;
      } else {
        ++state.since_accept;
      }
    }
    totals.evaluations += evals;
    if (best < totals.best_makespan) {
      totals.best_makespan = best;
      ++totals.improvements;
    }
  }
  return totals;
}

TEST(DeltaEvalProperty, LocalCutoffsChangeNoCounterOrWinner) {
  // The paper systems under the ATE-bound makespans where most swaps
  // are cut off, plus random systems over every parameter variant.
  std::vector<core::SystemModel> systems;
  for (const char* soc : {"d695", "p22810", "p93791"}) systems.push_back(paper(soc, 4));
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Rng rng = stream_rng(0x10CA1, seed);
    systems.push_back(random_system(rng, params_variant(seed)));
  }
  obs::MetricsRegistry& reg = obs::registry();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  const std::uint64_t pruned_before = reg.snapshot().counter_or("planner.pruned");
  for (std::size_t i = 0; i < systems.size(); ++i) {
    const core::SystemModel& sys = systems[i];
    for (const bool constrained : {false, true}) {
      SCOPED_TRACE(sys.soc().name + (constrained ? " constrained" : ""));
      const power::PowerBudget budget =
          constrained ? power::PowerBudget::fraction_of_total(sys.soc(), 0.6)
                      : power::PowerBudget::unconstrained();
      const EvalContext ctx(sys, budget);
      SearchOptions options;
      options.strategy = StrategyKind::kLocal;
      options.iters = 160;
      options.seed = 11 + i;
      const SearchResult got = search_orders(ctx, options);
      const FullPriceTotals want = full_price_local(ctx, options);
      EXPECT_EQ(got.best.makespan, want.best_makespan);
      EXPECT_EQ(got.metrics.counter_or("search.evaluations"), want.evaluations);
      EXPECT_EQ(got.metrics.counter_or("search.proposals"), want.proposals);
      EXPECT_EQ(got.metrics.counter_or("search.accepted"), want.accepted);
      EXPECT_EQ(got.metrics.counter_or("search.resets"), want.resets);
      EXPECT_EQ(got.metrics.counter_or("search.improvements"), want.improvements);
    }
  }
  // The cutoff is not dead code: the ATE-bound systems prune.
  EXPECT_GT(reg.snapshot().counter_or("planner.pruned"), pruned_before);
  reg.set_enabled(was_enabled);
}

TEST(DeltaEvalProperty, JobsBitIdenticalWithDeltaOn) {
  // Every search evaluation runs on the per-move path; under a power
  // limit the anneal and local strategies must still not depend on jobs.
  for (const char* soc : {"d695", "p22810", "p93791"}) {
    const core::SystemModel sys = paper(soc, soc == std::string("d695") ? 6 : 8);
    const power::PowerBudget budget = power::PowerBudget::fraction_of_total(sys.soc(), 0.6);
    for (const StrategyKind kind : {StrategyKind::kAnneal, StrategyKind::kLocal}) {
      SCOPED_TRACE(std::string(soc) + (kind == StrategyKind::kAnneal ? " anneal" : " local"));
      SearchOptions options;
      options.strategy = kind;
      options.iters = 64;
      std::optional<SearchResult> baseline;
      for (const unsigned jobs : {1u, 2u, 8u}) {
        options.jobs = jobs;
        SearchResult result = search_orders(sys, budget, options);
        if (!baseline) {
          baseline = std::move(result);
          continue;
        }
        EXPECT_EQ(result.best.makespan, baseline->best.makespan) << "jobs " << jobs;
        EXPECT_EQ(result.best.sessions, baseline->best.sessions) << "jobs " << jobs;
        EXPECT_EQ(result.metrics.counters, baseline->metrics.counters) << "jobs " << jobs;
      }
    }
  }
}

}  // namespace
}  // namespace nocsched::search
