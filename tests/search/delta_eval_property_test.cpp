// The order search's per-move evaluation property: every order the
// search prices through EvalContext — a within-tier swap, a compound
// move, a whole-tier reshuffle (the reset move), off an incumbent that
// is replaced now and then — is *bit-identical* to the reference
// planner's (tests/support oracle) plan of the same order: evaluate()
// returns the oracle's makespan, and plan() its sessions, makespan and
// floating-point peak power.  Asserted over the builtin paper systems
// and random SoCs across every planner parameter variant, mid-timeline
// contexts with pretested processors, plus the search-level contract
// that --jobs {1, 2, 8} stay bit-identical under a power limit.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/pair_table.hpp"
#include "core/scheduler.hpp"
#include "noc/fault.hpp"
#include "search/driver.hpp"
#include "search/eval_context.hpp"
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
  EXPECT_EQ(a.peak_power, b.peak_power);  // exact: same FP operations
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
  ASSERT_EQ(ctx.evaluate(incumbent), oracle_plan(incumbent).makespan);
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
    if (rng.chance(0.4)) {
      incumbent = order;
      expect_schedules_identical(ctx.plan(incumbent), want);
      if (::testing::Test::HasFailure()) return;
    }
  }
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
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Rng rng = stream_rng(0x5EED0D, seed);
    const core::SystemModel sys = random_system(rng, params_variant(seed));
    SCOPED_TRACE(seed);
    power::PowerBudget budget = power::PowerBudget::unconstrained();
    if (rng.chance(0.5)) budget = power::PowerBudget::fraction_of_total(sys.soc(), 0.8);
    const EvalContext ctx(sys, budget);
    run_sequence(ctx, full_order_oracle(ctx, budget), rng, 30);
  }
}

TEST(DeltaEvalProperty, SubsetOrdersWithPretestedProcessors) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng = stream_rng(0x5B5E7, seed);
    const core::SystemModel sys = random_system(rng, params_variant(seed % 2 ? 1 : 0));
    SCOPED_TRACE(seed);
    const power::PowerBudget budget = power::PowerBudget::unconstrained();

    // A mid-timeline context: every processor either pretested (serves
    // from 0, not planned) or a candidate, and some plain cores already
    // tested in an earlier epoch.
    std::vector<int> pretested;
    std::vector<bool> candidates(sys.soc().modules.size(), false);
    for (const itc02::Module& m : sys.soc().modules) {
      if (m.is_processor && rng.chance(0.5)) {
        pretested.push_back(m.id);
      } else if (m.is_processor || !rng.chance(0.2)) {
        candidates[static_cast<std::size_t>(m.id - 1)] = true;
      }
    }
    const EvalContext ctx(sys, budget, core::PairTable(sys), noc::FaultSet{}, candidates,
                          pretested);
    run_sequence(
        ctx,
        [&](const std::vector<int>& order) {
          return core::oracle::plan_tests_subset(sys, budget, order, ctx.pair_table(), pretested);
        },
        rng, 20);
  }
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
