#include "core/bounds.hpp"

#include <gtest/gtest.h>

#include "core/scheduler.hpp"
#include "itc02/random_soc.hpp"
#include "search/driver.hpp"

namespace nocsched::core {
namespace {

TEST(LowerBounds, CombinedIsMaxOfParts) {
  LowerBounds b;
  b.critical_session = 10;
  b.ate_only_work = 20;
  b.work_per_station = 15;
  EXPECT_EQ(b.combined(), 20u);
  b.work_per_station = 50;
  EXPECT_EQ(b.combined(), 50u);
}

TEST(LowerBounds, NoProcSystemsDegenerateToSerialWork) {
  const SystemModel sys =
      SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 0,
                                PlannerParams::paper());
  const LowerBounds b = makespan_lower_bounds(sys);
  // Single station: work-per-station equals the ATE-only sum equals the
  // full serial time, and the greedy achieves exactly that.
  EXPECT_EQ(b.ate_only_work, b.work_per_station);
  const Schedule s = plan_tests(sys, power::PowerBudget::unconstrained());
  EXPECT_EQ(s.makespan, b.ate_only_work);
}

TEST(LowerBounds, HoldOnEveryPaperSystem) {
  const PlannerParams params = PlannerParams::paper();
  for (const std::string& soc : itc02::builtin_names()) {
    for (int procs : {0, 2, 8}) {
      const SystemModel sys =
          SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, procs, params);
      const LowerBounds b = makespan_lower_bounds(sys);
      const Schedule s = plan_tests(sys, power::PowerBudget::unconstrained());
      EXPECT_GE(s.makespan, b.combined()) << soc << " procs=" << procs;
      EXPECT_GT(b.critical_session, 0u);
    }
  }
}

TEST(LowerBounds, GreedyIsWithinTwoXOfBoundOnPaperSystems) {
  // Not a theorem, but a useful quality regression: on the evaluated
  // systems the greedy stays well under 2x the analytic bound.
  const PlannerParams params = PlannerParams::paper();
  for (const std::string& soc : itc02::builtin_names()) {
    const SystemModel sys =
        SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, 8, params);
    const LowerBounds b = makespan_lower_bounds(sys);
    const Schedule s = plan_tests(sys, power::PowerBudget::unconstrained());
    EXPECT_LT(s.makespan, 2 * b.combined()) << soc;
  }
}

class BoundsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundsProperty, HoldOnRandomSystems) {
  Rng rng(GetParam());
  itc02::RandomSocSpec spec;
  spec.min_cores = 2;
  spec.max_cores = 10;
  itc02::Soc soc = itc02::random_soc(rng, spec);
  const int procs = static_cast<int>(rng.below(3));
  for (int i = 1; i <= procs; ++i) {
    soc.modules.push_back(itc02::processor_module(
        itc02::ProcessorKind::kLeon, static_cast<int>(soc.modules.size()) + 1, i));
  }
  itc02::validate(soc);
  const noc::Mesh mesh(4, 4);
  const SystemModel sys(soc, mesh, default_placement(soc, mesh), 0, 15,
                        PlannerParams::paper());
  const LowerBounds b = makespan_lower_bounds(sys);
  const Schedule greedy = plan_tests(sys, power::PowerBudget::unconstrained());
  EXPECT_GE(greedy.makespan, b.combined());
  search::SearchOptions restarts;
  restarts.iters = 10;
  restarts.seed = GetParam();
  const search::SearchResult searched =
      search::search_orders(sys, power::PowerBudget::unconstrained(), restarts);
  EXPECT_GE(searched.best.makespan, b.combined());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsProperty, ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace nocsched::core
