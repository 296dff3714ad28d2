#include "search/replan.hpp"

#include <utility>

#include "obs/trace.hpp"

namespace nocsched::search {

ReplanResult replan_subset(const core::SystemModel& sys, const power::PowerBudget& budget,
                           const noc::FaultSet& faults, const SearchOptions& options,
                           core::PairTable&& table, std::size_t pairs_rebuilt,
                           const std::vector<bool>& candidates, std::vector<int> pretested) {
  // Replan latency shows up as one "replan" span (the nested search /
  // pair-table spans decompose it) and the coverage outcome as fault.*
  // counters when the registry is collecting.
  const obs::Span span("replan");
  ReplanResult result;
  result.pairs_rebuilt = pairs_rebuilt;
  const std::vector<bool> testable = table.testable_modules(sys, budget.limit, pretested);
  for (const itc02::Module& m : sys.soc().modules) {
    // Non-candidates (modules already tested in earlier epochs) are not
    // this replan's problem: they classify as nothing at all, so the
    // timeline's per-epoch coverage sums never double-count.
    if (!candidates[static_cast<std::size_t>(m.id - 1)]) continue;
    if (m.is_processor && faults.processor_failed(m.id)) {
      result.dead_modules.push_back(m.id);
    } else if (!testable[static_cast<std::size_t>(m.id - 1)]) {
      result.untestable_modules.push_back(m.id);
    } else {
      result.planned_modules.push_back(m.id);
    }
  }
  const EvalContext ctx(sys, budget, std::move(table), faults, candidates, std::move(pretested));
  SearchResult search = search_orders(ctx, options);
  result.schedule = std::move(search.best);
  result.metrics = std::move(search.metrics);

  obs::MetricsRegistry& reg = obs::registry();
  if (reg.enabled()) {
    static obs::Counter& replans = reg.counter("fault.replans");
    static obs::Counter& dead = reg.counter("fault.dead_modules");
    static obs::Counter& untestable = reg.counter("fault.coverage_lost_modules");
    static obs::Counter& planned = reg.counter("fault.planned_modules");
    static obs::Counter& rebuilt = reg.counter("fault.pairs_rebuilt");
    replans.inc();
    dead.add(result.dead_modules.size());
    untestable.add(result.untestable_modules.size());
    planned.add(result.planned_modules.size());
    rebuilt.add(result.pairs_rebuilt);
  }
  return result;
}

ReplanResult replan(const core::SystemModel& sys, const power::PowerBudget& budget,
                    const noc::FaultSet& faults, const SearchOptions& options) {
  return replan_subset(sys, budget, faults, options, core::PairTable(sys, faults), 0,
                       std::vector<bool>(sys.soc().modules.size(), true), {});
}

ReplanResult replan(const core::SystemModel& sys, const power::PowerBudget& budget,
                    const noc::FaultSet& faults, const SearchOptions& options,
                    const core::PairTable& pristine) {
  core::PairTable degraded = pristine;
  const std::size_t rebuilt = degraded.apply_faults(sys, faults);
  return replan_subset(sys, budget, faults, options, std::move(degraded), rebuilt,
                       std::vector<bool>(sys.soc().modules.size(), true), {});
}

}  // namespace nocsched::search
