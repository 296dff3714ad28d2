// Speed of the discrete-event replay itself: every paper system is
// planned once and then replayed in 5 timed batches; we report
// simulated cycles, events, the median batch's wall time per replay and
// event throughput.  Every timed replay's trace_json must equal the
// warm-up's byte for byte (compared after each batch's clock stops).  The simulator is a
// validation tool — it must stay fast enough to cross-check every plan
// a sweep produces (hundreds per experiment), so its own speed is a
// tracked headline number: each system and processor kind is also a
// "des_replay" row of BENCH_headline.json (bench_row.hpp).

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_row.hpp"
#include "core/scheduler.hpp"
#include "des/replay.hpp"
#include "report/trace_report.hpp"
#include "sim/cross_check.hpp"
#include "sim/validate.hpp"

int main() {
  using namespace nocsched;
  using clock = std::chrono::steady_clock;
  try {
    const core::PlannerParams params = core::PlannerParams::paper();
    std::cout << "Flit-level replay throughput (4 processors, no power limit)\n\n";
    std::cout << "system    cpu     sessions  events    packets   sim-cycles  wall-ms  "
                 "events/s\n";
    std::vector<bench::Row> rows;
    for (const std::string& soc : itc02::builtin_names()) {
      for (const auto kind : {itc02::ProcessorKind::kLeon, itc02::ProcessorKind::kPlasma}) {
        const core::SystemModel sys = core::SystemModel::paper_system(soc, kind, 4, params);
        const core::Schedule plan =
            core::plan_tests(sys, power::PowerBudget::unconstrained());
        sim::validate_or_throw(sys, plan);

        // Warm up once (and keep the trace for the stats and as the
        // determinism reference), then time batches large enough to
        // dominate clock noise and report the median one.
        const des::SimTrace trace = des::replay(sys, plan);
        const sim::CrossCheckReport check = sim::cross_check(sys, plan, trace);
        if (!check.ok()) {
          std::cerr << "cross-check failed for " << soc << ": " << check.mismatches[0]
                    << "\n";
          return 1;
        }
        const std::string reference = report::trace_json(sys, trace, check);
        constexpr int kBatches = 5;
        constexpr int kRunsPerBatch = 10;
        std::vector<double> batch_ms;
        std::vector<des::SimTrace> runs;
        runs.reserve(kRunsPerBatch);
        for (int b = 0; b < kBatches; ++b) {
          runs.clear();
          const auto begin = clock::now();
          for (int i = 0; i < kRunsPerBatch; ++i) runs.push_back(des::replay(sys, plan));
          batch_ms.push_back(
              std::chrono::duration<double, std::milli>(clock::now() - begin).count() /
              kRunsPerBatch);
          for (const des::SimTrace& t : runs) {
            if (report::trace_json(sys, t, sim::cross_check(sys, plan, t)) != reference) {
              std::cerr << "nondeterministic replay on " << soc << "\n";
              return 1;
            }
          }
        }
        std::sort(batch_ms.begin(), batch_ms.end());
        const double ms = batch_ms[kBatches / 2];
        const double events_per_sec =
            ms > 0.0 ? static_cast<double>(trace.events_processed) / (ms / 1000.0) : 0.0;
        const std::string cpu{itc02::to_string(kind)};
        std::cout << soc << std::string(soc.size() < 8 ? 8 - soc.size() : 1, ' ')
                  << cpu << std::string(cpu.size() < 8 ? 8 - cpu.size() : 1, ' ')
                  << trace.sessions.size() << "        " << trace.events_processed << "     "
                  << trace.packets_delivered << "      " << trace.observed_makespan << "     "
                  << ms << "  " << static_cast<std::uint64_t>(events_per_sec) << "\n";
        rows.emplace_back("des_replay")
            .str("soc", soc)
            .str("cpu", cpu)
            .num("events", trace.events_processed)
            .num("packets", trace.packets_delivered)
            .num("sim_cycles", trace.observed_makespan)
            .num("wall_ms", ms)
            .num("events_per_sec", static_cast<std::uint64_t>(events_per_sec));
      }
    }
    std::cout << "\n";
    for (const bench::Row& row : rows) std::cout << row;
  } catch (const std::exception& e) {
    std::cerr << "bench failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
