// The delta-evaluation kernel's mandatory property: every order priced
// through DeltaPlanner — suffix replans from any incumbent, any
// checkpoint spacing — is *bit-identical* to the reference planner's
// (tests/support oracle) plan of the same order: same makespan, same
// sessions, same floating-point peak power.  Asserted over the builtin paper systems
// and random SoCs across every planner parameter variant, plus the
// search-level contracts: delta on/off gives the same SearchResult and
// --jobs {1, 2, 8} stay bit-identical with delta on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/delta_planner.hpp"
#include "core/scheduler.hpp"
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

/// The reference planner's plan of `order` over `ctx`'s inputs.
core::Schedule oracle_plan(const EvalContext& ctx, const power::PowerBudget& budget,
                           const std::vector<int>& order) {
  return core::oracle::plan_tests_with_order(ctx.system(), budget, order, ctx.pair_table());
}

/// Drives `steps` random swaps (occasionally multi-swap or a full
/// tier shuffle, the reset move) against one DeltaPlanner, asserting
/// bit-identity with the reference planner at every step.
void run_sequence(const EvalContext& ctx, const power::PowerBudget& budget,
                  core::DeltaPlanner& dp, Rng& rng, int steps) {
  std::vector<int> incumbent = ctx.base_order();
  ASSERT_EQ(dp.plan_full(incumbent), oracle_plan(ctx, budget, incumbent).makespan);
  for (int step = 0; step < steps; ++step) {
    std::vector<int> order = incumbent;
    if (rng.chance(0.1)) {
      order = ctx.shuffled_order(rng);  // reset move: replan from scratch
    } else {
      random_swap(ctx, rng, order);
      if (rng.chance(0.3)) random_swap(ctx, rng, order);  // compound move
    }
    const std::uint64_t delta_makespan = dp.evaluate(order);
    const std::uint64_t full_makespan = oracle_plan(ctx, budget, order).makespan;
    ASSERT_EQ(delta_makespan, full_makespan) << "step " << step;
    if (rng.chance(0.4)) {
      incumbent = order;
      dp.adopt();
      expect_schedules_identical(dp.materialize(), oracle_plan(ctx, budget, incumbent));
      ASSERT_EQ(dp.base_makespan(), full_makespan);
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
      core::DeltaPlanner dp = ctx.make_delta_planner(16);
      Rng rng = stream_rng(0xDE17A, constrained ? 1 : 0);
      run_sequence(ctx, budget, dp, rng, 50);
    }
  }
}

TEST(DeltaEvalProperty, CheckpointSpacingsAllAgree) {
  const core::SystemModel sys = paper("p22810", 4);
  const power::PowerBudget budget = power::PowerBudget::fraction_of_total(sys.soc(), 0.6);
  const EvalContext ctx(sys, budget);
  const std::uint32_t n = static_cast<std::uint32_t>(ctx.base_order().size());
  for (const std::uint32_t spacing : {1u, 4u, 16u, n}) {
    SCOPED_TRACE(spacing);
    core::DeltaPlanner dp = ctx.make_delta_planner(spacing);
    // Same RNG seed for every spacing: identical move sequences, so
    // the spacings must agree step for step (each is checked against
    // the reference anyway).
    Rng rng = stream_rng(0xC0FFEE, 7);
    run_sequence(ctx, budget, dp, rng, 40);
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
    core::DeltaPlanner dp = ctx.make_delta_planner(static_cast<std::uint32_t>(1 + seed % 5));
    run_sequence(ctx, budget, dp, rng, 30);
  }
}

TEST(DeltaEvalProperty, SubsetOrdersWithPretestedProcessors) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng = stream_rng(0x5B5E7, seed);
    const core::SystemModel sys = random_system(rng, params_variant(seed % 2 ? 1 : 0));
    SCOPED_TRACE(seed);
    const power::PowerBudget budget = power::PowerBudget::unconstrained();
    const core::PairTable table(sys);

    // A random subset order: every plain core, each processor either
    // pretested (serves from 0, not planned) or planned up front.
    std::vector<int> pretested;
    std::vector<int> order;
    for (const itc02::Module& m : sys.soc().modules) {
      if (m.is_processor && rng.chance(0.5)) {
        pretested.push_back(m.id);
      } else if (!m.is_processor && rng.chance(0.2)) {
        continue;  // already tested in an earlier epoch
      } else {
        order.push_back(m.id);
      }
    }
    std::sort(order.begin(), order.end(),
              [&](int a, int b) {
                const bool pa = sys.soc().module(a).is_processor;
                const bool pb = sys.soc().module(b).is_processor;
                if (pa != pb) return pa;
                return a < b;
              });

    core::DeltaPlanner dp(sys, budget, table, pretested, 4);
    ASSERT_EQ(dp.plan_full(order),
              core::oracle::plan_tests_subset(sys, budget, order, table, pretested).makespan);
    for (int step = 0; step < 20; ++step) {
      std::vector<int> perturbed = order;
      if (perturbed.size() >= 2) {
        const std::size_t a = rng.below(perturbed.size());
        const std::size_t b = rng.below(perturbed.size());
        std::swap(perturbed[a], perturbed[b]);
      }
      const std::uint64_t got = dp.evaluate(perturbed);
      const std::uint64_t want =
          core::oracle::plan_tests_subset(sys, budget, perturbed, table, pretested).makespan;
      ASSERT_EQ(got, want) << "step " << step;
      if (rng.chance(0.5)) {
        order = perturbed;
        dp.adopt();
        expect_schedules_identical(dp.materialize(), core::oracle::plan_tests_subset(
                                                         sys, budget, order, table, pretested));
      }
    }
  }
}

TEST(DeltaEvalProperty, JobsBitIdenticalWithDeltaOn) {
  for (const char* soc : {"d695", "p22810", "p93791"}) {
    const core::SystemModel sys = paper(soc, soc == std::string("d695") ? 6 : 8);
    const power::PowerBudget budget = power::PowerBudget::fraction_of_total(sys.soc(), 0.6);
    for (const StrategyKind kind : {StrategyKind::kAnneal, StrategyKind::kLocal}) {
      SCOPED_TRACE(std::string(soc) + (kind == StrategyKind::kAnneal ? " anneal" : " local"));
      SearchOptions options;
      options.strategy = kind;
      options.iters = 64;
      options.delta = true;
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

TEST(DeltaEvalProperty, DeltaOnOffSameSearchResult) {
  for (const char* soc : {"d695", "p22810", "p93791"}) {
    const core::SystemModel sys = paper(soc, soc == std::string("d695") ? 6 : 8);
    const power::PowerBudget budget = power::PowerBudget::unconstrained();
    for (const StrategyKind kind : {StrategyKind::kAnneal, StrategyKind::kLocal}) {
      SCOPED_TRACE(std::string(soc) + (kind == StrategyKind::kAnneal ? " anneal" : " local"));
      SearchOptions options;
      options.strategy = kind;
      options.iters = 48;
      options.delta = false;
      const SearchResult full = search_orders(sys, budget, options);
      options.delta = true;
      const SearchResult delta = search_orders(sys, budget, options);
      // Same search trajectory move for move: identical best schedule
      // and identical search.* accounting (the delta run additionally
      // reports its delta.* tallies).
      EXPECT_EQ(delta.best.makespan, full.best.makespan);
      EXPECT_EQ(delta.best.sessions, full.best.sessions);
      EXPECT_EQ(delta.first_makespan, full.first_makespan);
      for (const auto& [name, value] : full.metrics.counters) {
        EXPECT_EQ(delta.metrics.counter_or(name), value) << name;
      }
      EXPECT_GT(delta.metrics.counter_or("delta.replans"), 0u);
      EXPECT_EQ(full.metrics.counter_or("delta.replans"), 0u);
    }
  }
}

}  // namespace
}  // namespace nocsched::search
