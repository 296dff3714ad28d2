// Search strategy quality at an equal order-evaluation budget: every
// strategy gets the same number of planner runs on the same system,
// power setting, and seed, so the only difference is how it spends
// them.  Each table row is also a "search_quality" row of
// BENCH_headline.json (bench_row.hpp), recording whether adaptive
// search (anneal / local) actually buys schedule quality over blind
// restarts.
//
// (power is "none" or the power-limit fraction; evals counts orders
// actually planned including the deterministic pass — local descents
// may converge below the budget.  greedy is the deterministic
// priority-order makespan every strategy starts from.)
//
// Each system also gets one "LB" line with its provable makespan lower
// bound (core::makespan_lower_bounds, combined), the floor no order can
// beat:
//
//   LB <soc> <procs> <lower_bound>
//
// The bench exits non-zero unless anneal or local strictly beats
// restart somewhere: that is the whole point of adaptive search, and a
// regression that flattens the gap should fail loudly.  The headroom is
// structural — p22810/p93791's unconstrained makespans are pinned by an
// ATE-bound critical core no order can move, while d695 (and any
// power-constrained run) still rewards smarter orders.

#include <iostream>
#include <optional>
#include <vector>

#include "bench_row.hpp"
#include "common/error.hpp"
#include "core/bounds.hpp"
#include "search/driver.hpp"
#include "sim/validate.hpp"

int main() {
  using namespace nocsched;
  try {
    const core::PlannerParams params = core::PlannerParams::paper();
    constexpr std::uint64_t kIters = 256;
    constexpr std::uint64_t kSeed = 0x5EED;
    std::cout << "Search quality at an equal budget of " << kIters
              << " order evaluations (Leon, seed 0x5EED)\n\n";
    std::cout << "soc procs power strategy iters evals greedy best improvement_pct\n";
    bool adaptive_won = false;
    std::vector<bench::Row> rows;
    for (const std::string& soc : itc02::builtin_names()) {
      const int procs = soc == "d695" ? 6 : 8;
      const core::SystemModel sys =
          core::SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, procs, params);
      std::cout << "LB " << soc << " " << procs << " "
                << core::makespan_lower_bounds(sys).combined() << "\n";
      for (const std::optional<double> fraction :
           {std::optional<double>{}, std::optional<double>{0.5}}) {
        const power::PowerBudget budget =
            fraction ? power::PowerBudget::fraction_of_total(sys.soc(), *fraction)
                     : power::PowerBudget::unconstrained();
        std::uint64_t restart_best = 0;
        for (const search::StrategyKind kind :
             {search::StrategyKind::kRestart, search::StrategyKind::kAnneal,
              search::StrategyKind::kLocal}) {
          search::SearchOptions options;
          options.strategy = kind;
          options.iters = kIters;
          options.seed = kSeed;
          options.jobs = 0;  // all hardware threads; the result is jobs-invariant
          const search::SearchResult result = search::search_orders(sys, budget, options);
          sim::validate_or_throw(sys, result.best);
          if (kind == search::StrategyKind::kRestart) {
            restart_best = result.best.makespan;
          } else if (result.best.makespan < restart_best) {
            adaptive_won = true;
          }
          const double pct = 100.0 *
                             (static_cast<double>(result.first_makespan) -
                              static_cast<double>(result.best.makespan)) /
                             static_cast<double>(result.first_makespan);
          const bench::Row& row =
              rows.emplace_back("search_quality")
                  .str("soc", soc)
                  .num("procs", procs)
                  .str("power_limit", fraction ? cat(*fraction) : std::string("none"))
                  .str("strategy", result.metrics.info_or("search.strategy"))
                  .num("iters", kIters)
                  .num("evals", result.metrics.counter_or("search.evaluations"))
                  .num("greedy_makespan", result.first_makespan)
                  .num("best_makespan", result.best.makespan)
                  .fixed(2)
                  .num("improvement_pct", pct);
          std::cout << row.cells() << "\n";
        }
      }
    }
    std::cout << "\n";
    for (const bench::Row& row : rows) std::cout << row;
    if (!adaptive_won) {
      std::cerr << "bench failed: neither anneal nor local beat restart anywhere\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "bench failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
