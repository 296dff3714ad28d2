// The paper's headline claims (§3):
//   C1 "even smaller systems like d695_leon can take advantage of the
//       extra test interface, with test time reduction of 28%"
//   C2 "for larger systems such as p93791_leon, the gain in test time
//       can be as high as 44%"
//   C3 "despite of this, imposing power constraints the test reduction
//       reaches up to 37%"
// This bench prints paper-vs-measured for each claim (best reduction
// over the processor-count grid, per power setting), then each claim as
// a "claims" row of BENCH_headline.json (bench_row.hpp).

#include <iostream>
#include <vector>

#include "bench_row.hpp"
#include "report/experiments.hpp"

namespace {

struct Claim {
  const char* id;
  const char* soc;
  bool constrained;  // 50% power limit series?
  int paper_pct;
};

}  // namespace

int main() {
  using namespace nocsched;
  try {
    const core::PlannerParams params = core::PlannerParams::paper();
    const Claim claims[] = {
        {"C1", "d695", false, 28},
        {"C2", "p93791", false, 44},
        {"C3", "p93791", true, 37},
    };
    std::cout << "Headline claims (best test-time reduction across the reuse sweep, "
                 "Leon systems)\n\n";
    std::cout << "claim  system    power series      paper  measured\n";
    std::vector<bench::Row> rows;
    for (const Claim& c : claims) {
      const report::ReuseSweep sweep =
          report::run_paper_panel(c.soc, itc02::ProcessorKind::kLeon, params);
      const std::optional<double> fraction =
          c.constrained ? std::optional<double>(0.5) : std::nullopt;
      double best = 0.0;
      int best_procs = 0;
      for (const report::SweepPoint& p : sweep.points) {
        if (p.processors == 0) continue;
        if (p.power_fraction.has_value() != fraction.has_value()) continue;
        const double r = sweep.reduction_at(p.processors, p.power_fraction);
        if (r > best) {
          best = r;
          best_procs = p.processors;
        }
      }
      const int measured_pct = static_cast<int>(best * 100.0 + 0.5);
      std::cout << c.id << "     " << c.soc << (std::string(10 - std::string(c.soc).size(), ' '))
                << (c.constrained ? "50% power limit " : "no power limit  ") << "  "
                << c.paper_pct << "%    " << measured_pct << "% (at "
                << report::proc_label(best_procs) << ")\n";
      rows.emplace_back("claims")
          .str("id", c.id)
          .str("soc", c.soc)
          .str("power_limit", c.constrained ? "50%" : "none")
          .num("paper_pct", c.paper_pct)
          .num("measured_pct", measured_pct)
          .str("at", report::proc_label(best_procs));
    }
    std::cout << "\nAbsolute numbers are not expected to match (reconstructed benchmark\n"
                 "data and pinned model constants — see DESIGN.md); the comparison\n"
                 "targets the paper's qualitative claims: double-digit reductions,\n"
                 "larger systems gain more, power limits temper but do not erase gains.\n\n";
    for (const bench::Row& row : rows) std::cout << row;
  } catch (const std::exception& e) {
    std::cerr << "bench failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
