// Online fault-stream replanning latency: when a fault event lands
// mid-execution, how fast does the controller have the next plan?  Per
// event we time the two recovery paths:
//
//   * cold    — rebuild the degraded PairTable from scratch and replan
//               with no warm start (what a stateless controller pays);
//   * incr    — chain PairTable::apply_faults from the previous event's
//               table and warm-start the search from the surviving
//               order (what sim::replay_timeline actually does).
//
// Each table row is also a "fault_stream" row of BENCH_headline.json
// (bench_row.hpp).
//
// (latency quantiles are over the per-event best-of-R repeats; coverage
// and stretch come from a full deterministic timeline replay of the
// same stream, audited by sim::validate_timeline and asserted
// bit-identical at --jobs 1/2/8.)
//
// The bench exits non-zero unless the incremental + warm-started path
// beats the cold path on EVERY event of every system — the replan-
// latency SLO this PR exists to hold.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_row.hpp"
#include "common/error.hpp"
#include "core/pair_table.hpp"
#include "core/scheduler.hpp"
#include "report/timeline_report.hpp"
#include "search/fault_stream.hpp"
#include "search/replan.hpp"
#include "sim/timeline.hpp"
#include "sim/validate.hpp"

namespace {

using namespace nocsched;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[idx];
}

}  // namespace

int main() {
  try {
    const core::PlannerParams params = core::PlannerParams::paper();
    const power::PowerBudget budget = power::PowerBudget::unconstrained();
    constexpr std::size_t kEvents = 8;
    constexpr int kRepeats = 5;
    constexpr std::uint64_t kSeed = 0xFA017;
    std::cout << "Online fault streams: " << kEvents << " timed fault events per system "
              << "(seed 0xFA017), best of " << kRepeats << " repeats per event,\n"
              << "cold (from-scratch table, no warm start) vs incremental "
              << "(chained apply_faults + warm-started search)\n\n";
    std::cout << "soc procs events covered total coverage stretch cold_p50 cold_p99 "
                 "incr_p50 incr_p99 speedup\n";

    bool incremental_won = true;
    std::vector<bench::Row> rows;
    for (const std::string& soc : itc02::builtin_names()) {
      const int procs = soc == "d695" ? 6 : 8;
      const core::SystemModel sys =
          core::SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, procs, params);
      const core::Schedule pristine_plan = core::plan_tests(sys, budget);
      const search::FaultStream stream =
          search::random_fault_stream(sys, kEvents, kSeed, pristine_plan.makespan);

      // Latency lanes: per event, the fault set is the stream's
      // cumulative prefix and the warm order is the previous event's
      // surviving plan — exactly the state the timeline engine holds
      // when the event lands.
      const search::SearchOptions cold_opts;  // iters = 0: deterministic pass
      std::vector<double> cold_ms;
      std::vector<double> incr_ms;
      core::PairTable master(sys);
      std::vector<int> warm;
      for (const core::Session& s : pristine_plan.sessions) warm.push_back(s.module_id);
      for (std::size_t e = 0; e < stream.events.size(); ++e) {
        const noc::FaultSet faults = stream.cumulative(e + 1);
        search::SearchOptions warm_opts;
        warm_opts.warm_start_order = warm;

        double best_cold = 0.0;
        double best_incr = 0.0;
        search::ReplanResult incr_result;
        for (int r = 0; r < kRepeats; ++r) {
          auto t0 = std::chrono::steady_clock::now();
          const search::ReplanResult cold = search::replan(sys, budget, faults, cold_opts);
          const double c = ms_since(t0);

          t0 = std::chrono::steady_clock::now();
          search::ReplanResult incr = search::replan(sys, budget, faults, warm_opts, master);
          const double i = ms_since(t0);

          if (r == 0) {
            sim::validate_or_throw(sys, cold.schedule, faults);
            sim::validate_or_throw(sys, incr.schedule, faults);
            best_cold = c;
            best_incr = i;
            incr_result = std::move(incr);
          } else {
            best_cold = std::min(best_cold, c);
            best_incr = std::min(best_incr, i);
          }
        }
        cold_ms.push_back(best_cold);
        incr_ms.push_back(best_incr);
        if (best_incr >= best_cold) {
          incremental_won = false;
          std::cerr << "SLO miss: " << soc << " event " << e << " incremental "
                    << best_incr << " ms >= cold " << best_cold << " ms\n";
        }
        // Chain state forward: the master table absorbs the increment
        // and the warm order becomes this event's surviving plan.
        master.apply_faults(sys, faults);
        warm.clear();
        for (const core::Session& s : incr_result.schedule.sessions) {
          warm.push_back(s.module_id);
        }
      }

      // Full timeline replay of the same stream: coverage retained and
      // makespan stretch, audited, bit-identical at every job count.
      search::SearchOptions topts;
      topts.strategy = search::StrategyKind::kLocal;
      topts.iters = 96;
      topts.jobs = 1;
      const sim::TimelineResult timeline = sim::replay_timeline(sys, budget, stream, topts);
      const sim::TimelineCheck check = sim::validate_timeline(sys, stream, timeline);
      for (const std::string& v : check.violations) {
        std::cerr << "bench failed: " << soc << " timeline: " << v << "\n";
      }
      ensure(check.ok(), "bench failed: timeline validation on ", soc);
      const std::string reference = report::timeline_json(sys, stream, timeline);
      for (const unsigned jobs : {2U, 8U}) {
        search::SearchOptions jopts = topts;
        jopts.jobs = jobs;
        const sim::TimelineResult again = sim::replay_timeline(sys, budget, stream, jopts);
        ensure(report::timeline_json(sys, stream, again) == reference,
               "bench failed: timeline replay diverged at --jobs ", jobs, " on ", soc);
      }

      const std::size_t covered = timeline.covered_modules.size();
      const std::size_t total = covered + timeline.uncovered_modules.size();
      const bench::Row& row =
          rows.emplace_back("fault_stream")
              .str("soc", soc)
              .num("procs", procs)
              .num("events", kEvents)
              .num("covered", covered)
              .num("total", total)
              .fixed(3)
              .num("coverage_retained", timeline.coverage_retained())
              .num("makespan_stretch", timeline.makespan_stretch())
              .num("cold_p50_ms", quantile(cold_ms, 0.5))
              .num("cold_p99_ms", quantile(cold_ms, 0.99))
              .num("incr_p50_ms", quantile(incr_ms, 0.5))
              .num("incr_p99_ms", quantile(incr_ms, 0.99))
              .fixed(2)
              .num("speedup_p50", quantile(cold_ms, 0.5) / quantile(incr_ms, 0.5));
      std::cout << row.cells() << "\n";
    }
    std::cout << "\n";
    for (const bench::Row& row : rows) std::cout << row;
    if (!incremental_won) {
      std::cerr << "bench failed: the incremental + warm-started replan did not beat the "
                   "cold replan on every event\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "bench failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
