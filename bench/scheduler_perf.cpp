// A6: planner throughput (google-benchmark).  The planner is meant to
// sit inside a designer's iteration loop, so wall-clock matters: these
// timings cover the full pipeline (system construction is hoisted;
// planning + validation measured) on the three paper systems.  The
// validator rows re-check a finished plan, fault-free and on a degraded
// mid-timeline epoch, so its cost reads next to the plan it checks.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/pair_table.hpp"
#include "core/scheduler.hpp"
#include "core/system_model.hpp"
#include "search/replan.hpp"
#include "sim/validate.hpp"

namespace {

using namespace nocsched;

void bench_plan(benchmark::State& state, const char* soc, int procs, bool constrained) {
  const core::PlannerParams params = core::PlannerParams::paper();
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
BENCHMARK_CAPTURE(bench_validate, d695_6proc, "d695", 6);
BENCHMARK_CAPTURE(bench_validate, p93791_8proc, "p93791", 8);
BENCHMARK_CAPTURE(bench_validate_degraded, p22810_4proc, "p22810", 4);

BENCHMARK_MAIN();
