// A6: planner throughput (google-benchmark).  The planner is meant to
// sit inside a designer's iteration loop, so wall-clock matters: these
// timings cover the full pipeline (system construction is hoisted;
// planning + validation measured) on the three paper systems.  The
// validator rows re-check a finished plan, fault-free and on a degraded
// mid-timeline epoch, so its cost reads next to the plan it checks.  The
// evaluate rows price one search candidate per iteration — the order
// search's hot path — so its cost reads next to the greedy plan.  The
// apply_faults rows degrade the pristine pair table to one link or one
// router fault, the table half of a fault replan.

#include <benchmark/benchmark.h>

#include <utility>
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
// queries no perfbench workload reaches.  `channels` picks how test
// streams share a channel: multiplexed (the default) or the circuit
// ablation, which no perfbench workload plans either.
void bench_plan(benchmark::State& state, const char* soc, int procs, bool constrained,
                core::ResourceChoice choice = core::ResourceChoice::kFirstAvailable,
                core::ChannelModel channels = core::ChannelModel::kMultiplexed) {
  core::PlannerParams params = core::PlannerParams::paper();
  params.resource_choice = choice;
  params.channel_model = channels;
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
// its candidates, under `power_fraction` of the total test power (0: no
// limit).  The 4-processor rows are systems the search_budget perfbench
// workload searches.
void bench_evaluate(benchmark::State& state, const char* soc, int procs, double power_fraction) {
  const core::PlannerParams params = core::PlannerParams::paper();
  const core::SystemModel sys =
      core::SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, procs, params);
  const power::PowerBudget budget =
      power_fraction > 0 ? power::PowerBudget::fraction_of_total(sys.soc(), power_fraction)
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

// The served pattern: cycle over the greedy plans of the 18 paper
// systems (d695/p22810/p93791 x Leon/Plasma x 1/2/4 processors), each at
// no limit and at 60% power, so no one plan stays hot in the caches.
void bench_validate_paper_mix(benchmark::State& state) {
  const core::PlannerParams params = core::PlannerParams::paper();
  std::vector<core::SystemModel> systems;
  std::vector<std::pair<std::size_t, core::Schedule>> plans;
  for (const char* soc : {"d695", "p22810", "p93791"}) {
    for (const itc02::ProcessorKind kind :
         {itc02::ProcessorKind::kLeon, itc02::ProcessorKind::kPlasma}) {
      for (const int procs : {1, 2, 4}) {
        systems.push_back(core::SystemModel::paper_system(soc, kind, procs, params));
      }
    }
  }
  for (std::size_t i = 0; i < systems.size(); ++i) {
    const itc02::Soc& soc = systems[i].soc();
    for (const power::PowerBudget& budget :
         {power::PowerBudget::unconstrained(), power::PowerBudget::fraction_of_total(soc, 0.6)}) {
      plans.emplace_back(i, core::plan_tests(systems[i], budget));
    }
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const auto& [sys, plan] = plans[next];
    sim::ValidationReport r = sim::validate(systems[sys], plan);
    benchmark::DoNotOptimize(r.violations.size());
    next = (next + 1) % plans.size();
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

// The incremental pair-table path of a fault replan: copy the pristine
// table and degrade it to one fault, either a mid-mesh link or a
// mid-mesh router (the copy is timed too, as search::replan pays it).
void bench_apply_faults(benchmark::State& state, const char* soc, bool router) {
  const core::PlannerParams params = core::PlannerParams::paper();
  const core::SystemModel sys =
      core::SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, 4, params);
  const core::PairTable pristine(sys);
  noc::FaultSet faults;
  if (router) {
    faults.fail_router(sys.mesh().router_count() / 2);
  } else {
    faults.fail_channel(sys.mesh().channel_count() / 2);
  }
  for (auto _ : state) {
    core::PairTable degraded = pristine;
    benchmark::DoNotOptimize(degraded.apply_faults(sys, faults));
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
BENCHMARK_CAPTURE(bench_plan, p93791_8proc_circuit, "p93791", 8, false,
                  core::ResourceChoice::kFirstAvailable, core::ChannelModel::kCircuit);
BENCHMARK_CAPTURE(bench_plan, p93791_8proc_earliest_circuit, "p93791", 8, false,
                  core::ResourceChoice::kEarliestCompletion, core::ChannelModel::kCircuit);
BENCHMARK_CAPTURE(bench_evaluate, d695_6proc, "d695", 6, 0.0);
BENCHMARK_CAPTURE(bench_evaluate, d695_6proc_power, "d695", 6, 0.5);
BENCHMARK_CAPTURE(bench_evaluate, p22810_8proc, "p22810", 8, 0.0);
BENCHMARK_CAPTURE(bench_evaluate, p22810_8proc_power, "p22810", 8, 0.5);
BENCHMARK_CAPTURE(bench_evaluate, p93791_8proc, "p93791", 8, 0.0);
BENCHMARK_CAPTURE(bench_evaluate, p93791_8proc_power, "p93791", 8, 0.5);
BENCHMARK_CAPTURE(bench_evaluate, p22810_4proc, "p22810", 4, 0.0);
BENCHMARK_CAPTURE(bench_evaluate, p22810_4proc_power75, "p22810", 4, 0.75);
BENCHMARK_CAPTURE(bench_evaluate, p93791_4proc, "p93791", 4, 0.0);
BENCHMARK_CAPTURE(bench_evaluate, p93791_4proc_power75, "p93791", 4, 0.75);
BENCHMARK_CAPTURE(bench_validate, d695_6proc, "d695", 6);
BENCHMARK_CAPTURE(bench_validate, p93791_8proc, "p93791", 8);
BENCHMARK_CAPTURE(bench_validate_degraded, p22810_4proc, "p22810", 4);
BENCHMARK(bench_validate_paper_mix)->Name("bench_validate/paper_mix");
BENCHMARK_CAPTURE(bench_apply_faults, p22810_4proc_link, "p22810", false);
BENCHMARK_CAPTURE(bench_apply_faults, p22810_4proc_router, "p22810", true);
BENCHMARK_CAPTURE(bench_apply_faults, p93791_4proc_link, "p93791", false);
BENCHMARK_CAPTURE(bench_apply_faults, p93791_4proc_router, "p93791", true);

BENCHMARK_MAIN();
