// Planner hot-path throughput: restart-strategy orders planned per second,
// single- and multi-threaded, on the three paper systems.  Each run is a
// "planner_perf" row of BENCH_headline.json (bench_row.hpp), so the
// planner's speed is tracked across revisions; the bench also asserts
// that the parallel run reproduces the serial result bit-for-bit.
//
// (hw_threads is the recording machine's hardware concurrency —
// multi-job rows only show real scaling when jobs <= hw_threads.
// strategy/iters name the search strategy and its iteration budget
// so planner_perf trajectories stay comparable across revisions that
// change the search engine; this bench times the `restart` strategy,
// the planner's raw orders/sec floor.)
//
// It also prices the observability layer on the biggest paper system:
// the same restart search A/B-timed with metrics collection off and
// on (bench::with_metrics, min of interleaved reps).  That row goes to
// the metrics_overhead section, where `scripts/bench_headline.py
// check-overhead` gates the <1% enabled-path claim.

#include <algorithm>
#include <chrono>
#include <iostream>

#include "bench_row.hpp"
#include "common/parallel.hpp"
#include "search/driver.hpp"
#include "sim/validate.hpp"
#include "with_metrics.hpp"

namespace {

using namespace nocsched;

/// The restart strategy: the deterministic pass plus `restarts` seeded
/// tier-preserving shuffles, each priced by makespan.
search::SearchResult restart_search(const core::SystemModel& sys, std::uint64_t restarts,
                                    unsigned jobs) {
  search::SearchOptions options;
  options.strategy = search::StrategyKind::kRestart;
  options.iters = restarts;
  options.seed = 0x5EED;
  options.jobs = jobs;
  return search::search_orders(sys, power::PowerBudget::unconstrained(), options);
}

/// Orders planned, including the deterministic pass.
std::uint64_t orders(const search::SearchResult& r) {
  return r.metrics.counter_or("search.evaluations");
}

double run_timed(const core::SystemModel& sys, std::uint64_t restarts, unsigned jobs,
                 search::SearchResult& out) {
  const auto t0 = std::chrono::steady_clock::now();
  out = restart_search(sys, restarts, jobs);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main() {
  try {
    const core::PlannerParams params = core::PlannerParams::paper();
    // At least two threads even on a single-core host, so the parallel
    // path (and its determinism check) always actually runs.
    const unsigned hw = std::max(2u, hardware_jobs());
    constexpr std::uint64_t kRestarts = 256;
    std::cout << "Planner throughput: " << kRestarts
              << " restart orders per system, jobs in {1, " << hw << "}\n\n";
    bool identical = true;
    for (const std::string& soc : itc02::builtin_names()) {
      const int procs = soc == "d695" ? 6 : 8;
      const core::SystemModel sys =
          core::SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, procs, params);
      search::SearchResult warm;
      (void)run_timed(sys, 8, 1, warm);  // warm caches before timing

      search::SearchResult serial;
      const double serial_ms = run_timed(sys, kRestarts, 1, serial);
      sim::validate_or_throw(sys, serial.best);

      search::SearchResult parallel;
      const double parallel_ms = run_timed(sys, kRestarts, hw, parallel);

      identical = identical && serial.best.makespan == parallel.best.makespan &&
                  serial.metrics.counters == parallel.metrics.counters &&
                  serial.best.sessions == parallel.best.sessions;

      for (const auto& [jobs, ms, r] :
           {std::tuple<unsigned, double, const search::SearchResult&>{1, serial_ms, serial},
            {hw, parallel_ms, parallel}}) {
        std::cout << bench::Row("planner_perf")
                         .str("soc", soc)
                         .num("procs", procs)
                         .num("orders", orders(r))
                         .num("jobs", jobs)
                         .num("wall_ms", ms)
                         .num("orders_per_sec", 1000.0 * static_cast<double>(orders(r)) / ms)
                         .num("best_makespan", r.best.makespan)
                         .num("hw_threads", hardware_jobs())
                         .str("strategy", "restart")
                         .num("iters", kRestarts);
      }
    }
    {
      const core::SystemModel big =
          core::SystemModel::paper_system("p93791", itc02::ProcessorKind::kLeon, 8, params);
      constexpr std::uint64_t kOrders = 64;
      search::SearchResult scratch;
      // Timed serially — the per-run flush cost being priced is the
      // same at any job count, without the thread pool's scheduling
      // jitter — and in many short pairs: a sub-1% verdict needs the
      // pair count, not the body length, and a ~9ms window also gives
      // the OS fewer chances to preempt mid-sample.
      const bench::MetricsOverhead moh = bench::with_metrics(
          [&] { scratch = restart_search(big, kOrders, 1); },
          101);
      std::cout << bench::Row("metrics_overhead")
                       .str("soc", "p93791")
                       .num("procs", 8)
                       .num("orders", orders(scratch))
                       .num("disabled_ms", moh.disabled_ms)
                       .num("enabled_ms", moh.enabled_ms)
                       .num("overhead_pct", moh.overhead_pct);
    }

    std::cout << "\n(orders_per_sec = planner runs per second)\n";
    if (!identical) {
      std::cerr << "bench failed: parallel restarts diverged from the serial result\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "bench failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
