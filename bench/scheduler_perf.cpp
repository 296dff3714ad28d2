// A6: planner throughput (google-benchmark).  The planner is meant to
// sit inside a designer's iteration loop, so wall-clock matters: these
// timings cover the full pipeline (system construction is hoisted;
// planning + validation measured) on the three paper systems.  The
// validator rows re-check a finished plan, fault-free and on a degraded
// mid-timeline epoch, so its cost reads next to the plan it checks.  The
// evaluate rows price one search candidate per iteration — the order
// search's hot path — so its cost reads next to the greedy plan.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "core/pair_table.hpp"
#include "core/scheduler.hpp"
#include "core/system_model.hpp"
#include "search/eval_context.hpp"
#include "search/replan.hpp"
#include "sim/validate.hpp"

namespace {

using namespace nocsched;

// `choice` picks the planner's resource rule: the paper's greedy
// (first available) or the earliest-completion ablation, whose window
// queries no perfbench workload reaches.
void bench_plan(benchmark::State& state, const char* soc, int procs, bool constrained,
                core::ResourceChoice choice = core::ResourceChoice::kFirstAvailable) {
  core::PlannerParams params = core::PlannerParams::paper();
  params.resource_choice = choice;
  const core::SystemModel sys =
      core::SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, procs, params);
  const power::PowerBudget budget =
      constrained ? power::PowerBudget::fraction_of_total(sys.soc(), 0.5)
                  : power::PowerBudget::unconstrained();
  for (auto _ : state) {
    core::Schedule s = core::plan_tests(sys, budget);
    benchmark::DoNotOptimize(s.makespan);
  }
}

// EvalContext::evaluate (the order checks plus a makespan-only plan)
// cycling over 64 seeded tier-shuffled orders, as order search prices
// its candidates.
void bench_evaluate(benchmark::State& state, const char* soc, int procs, bool constrained) {
  const core::PlannerParams params = core::PlannerParams::paper();
  const core::SystemModel sys =
      core::SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, procs, params);
  const power::PowerBudget budget =
      constrained ? power::PowerBudget::fraction_of_total(sys.soc(), 0.5)
                  : power::PowerBudget::unconstrained();
  const search::EvalContext ctx(sys, budget);
  Rng rng = stream_rng(0xE7A1, 0);
  std::vector<std::vector<int>> orders;
  for (int i = 0; i < 64; ++i) orders.push_back(ctx.shuffled_order(rng));
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.evaluate(orders[next]));
    next = (next + 1) % orders.size();
  }
}

void bench_validate(benchmark::State& state, const char* soc, int procs) {
  const core::PlannerParams params = core::PlannerParams::paper();
  const core::SystemModel sys =
      core::SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, procs, params);
  const core::Schedule s = core::plan_tests(sys, power::PowerBudget::unconstrained());
  for (auto _ : state) {
    sim::ValidationReport r = sim::validate(sys, s);
    benchmark::DoNotOptimize(r.violations.size());
  }
}

// The fault-aware form on a mid-timeline epoch: a mid-mesh link is cut,
// every other processor passed its own test in an earlier epoch, and
// the epoch plans the remaining modules under a 60% power budget.
void bench_validate_degraded(benchmark::State& state, const char* soc, int procs) {
  const core::PlannerParams params = core::PlannerParams::paper();
  const core::SystemModel sys =
      core::SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, procs, params);
  const power::PowerBudget budget = power::PowerBudget::fraction_of_total(sys.soc(), 0.6);
  noc::FaultSet faults;
  faults.fail_channel(sys.mesh().channel_count() / 2);
  std::vector<bool> candidates(sys.soc().modules.size(), true);
  std::vector<int> pretested;
  const std::vector<int> processors = sys.soc().processor_ids();
  for (std::size_t i = 0; i < processors.size(); i += 2) {
    pretested.push_back(processors[i]);
    candidates[static_cast<std::size_t>(processors[i] - 1)] = false;
  }
  const core::Schedule s =
      search::replan_subset(sys, budget, faults, search::SearchOptions{},
                            core::PairTable(sys, faults), 0, candidates, pretested)
          .schedule;
  for (auto _ : state) {
    sim::ValidationReport r = sim::validate(sys, s, faults, pretested);
    benchmark::DoNotOptimize(r.violations.size());
  }
}

}  // namespace

BENCHMARK_CAPTURE(bench_plan, d695_noproc, "d695", 0, false);
BENCHMARK_CAPTURE(bench_plan, d695_6proc, "d695", 6, false);
BENCHMARK_CAPTURE(bench_plan, p22810_8proc, "p22810", 8, false);
BENCHMARK_CAPTURE(bench_plan, p93791_8proc, "p93791", 8, false);
BENCHMARK_CAPTURE(bench_plan, p93791_8proc_power, "p93791", 8, true);
BENCHMARK_CAPTURE(bench_plan, p93791_8proc_earliest, "p93791", 8, false,
                  core::ResourceChoice::kEarliestCompletion);
BENCHMARK_CAPTURE(bench_plan, p93791_8proc_earliest_power, "p93791", 8, true,
                  core::ResourceChoice::kEarliestCompletion);
BENCHMARK_CAPTURE(bench_evaluate, d695_6proc, "d695", 6, false);
BENCHMARK_CAPTURE(bench_evaluate, d695_6proc_power, "d695", 6, true);
BENCHMARK_CAPTURE(bench_evaluate, p22810_8proc, "p22810", 8, false);
BENCHMARK_CAPTURE(bench_evaluate, p22810_8proc_power, "p22810", 8, true);
BENCHMARK_CAPTURE(bench_evaluate, p93791_8proc, "p93791", 8, false);
BENCHMARK_CAPTURE(bench_evaluate, p93791_8proc_power, "p93791", 8, true);
BENCHMARK_CAPTURE(bench_validate, d695_6proc, "d695", 6);
BENCHMARK_CAPTURE(bench_validate, p93791_8proc, "p93791", 8);
BENCHMARK_CAPTURE(bench_validate_degraded, p22810_4proc, "p22810", 4);

BENCHMARK_MAIN();
