#include "search/replan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/placement.hpp"
#include "core/scheduler.hpp"
#include "itc02/builtin.hpp"
#include "sim/validate.hpp"

namespace nocsched::search {
namespace {

using core::PlannerParams;
using core::SystemModel;

void expect_same_schedule(const core::Schedule& a, const core::Schedule& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.peak_power, b.peak_power);
}

noc::FaultSet scenario_for(const SystemModel& sys) {
  // One mid-mesh link plus one processor: enough to force detours, a
  // dead module, and service re-assignment on every paper system.
  noc::FaultSet faults;
  faults.fail_channel(sys.mesh().channel_count() / 2);
  const std::vector<int> procs = sys.soc().processor_ids();
  faults.fail_processor(procs[procs.size() / 2]);
  return faults;
}

TEST(Replan, EmptyFaultSetReproducesPlainSearch) {
  const SystemModel sys =
      SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 4, PlannerParams::paper());
  const power::PowerBudget budget = power::PowerBudget::unconstrained();
  SearchOptions options;
  options.iters = 16;
  const SearchResult plain = search_orders(sys, budget, options);
  const ReplanResult replanned = replan(sys, budget, noc::FaultSet{}, options);
  expect_same_schedule(plain.best, replanned.schedule);
  EXPECT_TRUE(replanned.dead_modules.empty());
  EXPECT_TRUE(replanned.untestable_modules.empty());
  EXPECT_EQ(replanned.planned_modules.size(), sys.soc().modules.size());
}

TEST(Replan, IncrementalTableMatchesScratchPath) {
  for (const std::string& soc : itc02::builtin_names()) {
    const SystemModel sys =
        SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, 4, PlannerParams::paper());
    const power::PowerBudget budget = power::PowerBudget::unconstrained();
    const noc::FaultSet faults = scenario_for(sys);
    SearchOptions options;
    options.iters = 8;
    const ReplanResult scratch = replan(sys, budget, faults, options);
    const core::PairTable pristine(sys);
    const ReplanResult incremental = replan(sys, budget, faults, options, pristine);
    expect_same_schedule(scratch.schedule, incremental.schedule);
    EXPECT_EQ(scratch.dead_modules, incremental.dead_modules);
    EXPECT_EQ(scratch.untestable_modules, incremental.untestable_modules);
    EXPECT_EQ(scratch.pairs_rebuilt, 0u);
    EXPECT_GT(incremental.pairs_rebuilt, 0u);
  }
}

TEST(Replan, MasksDeadProcessorsAndValidatesFaultAware) {
  const SystemModel sys =
      SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 4, PlannerParams::paper());
  const power::PowerBudget budget = power::PowerBudget::unconstrained();
  const noc::FaultSet faults = scenario_for(sys);
  const int dead = faults.failed_processors().front();
  SearchOptions options;
  options.iters = 8;
  const ReplanResult result = replan(sys, budget, faults, options);

  EXPECT_EQ(result.dead_modules, std::vector<int>{dead});
  for (const core::Session& s : result.schedule.sessions) {
    EXPECT_NE(s.module_id, dead);
    for (const int r : {s.source_resource, s.sink_resource}) {
      const core::Endpoint& ep = sys.endpoints()[static_cast<std::size_t>(r)];
      EXPECT_FALSE(ep.is_processor() && ep.processor_module == dead)
          << "module " << s.module_id << " scheduled on the dead processor";
    }
    for (const auto* path : {&s.path_in, &s.path_out}) {
      for (const noc::ChannelId c : *path) {
        EXPECT_TRUE(faults.channel_usable(sys.mesh(), c));
      }
    }
  }
  // planned + dead + untestable partitions the module set.
  EXPECT_EQ(result.planned_modules.size() + result.dead_modules.size() +
                result.untestable_modules.size(),
            sys.soc().modules.size());
  EXPECT_EQ(result.schedule.sessions.size(), result.planned_modules.size());
  sim::validate_or_throw(sys, result.schedule, faults);
}

TEST(Replan, UnroutableModulesAreReportedNotPlanned) {
  // A 1x4 line: cutting both directions of the last link strands the
  // modules placed on the far router.
  itc02::Soc soc = itc02::builtin_by_name("d695");
  noc::Mesh mesh(4, 1);
  auto placement = core::default_placement(soc, mesh);
  // ATE ports at the near end (routers 0 and 1), so the severed link
  // strands only router 3.
  const SystemModel sys(std::move(soc), noc::Mesh(mesh), std::move(placement), 0, 1,
                        PlannerParams::paper());
  noc::FaultSet faults;
  faults.fail_channel(sys.mesh().channel_between(2, 3));
  faults.fail_channel(sys.mesh().channel_between(3, 2));
  SearchOptions options;
  const ReplanResult result = replan(sys, power::PowerBudget::unconstrained(), faults, options);
  std::vector<int> stranded;
  for (const itc02::Module& m : sys.soc().modules) {
    if (sys.router_of(m.id) == 3) stranded.push_back(m.id);
  }
  ASSERT_FALSE(stranded.empty());
  EXPECT_EQ(result.untestable_modules, stranded);
  for (const core::Session& s : result.schedule.sessions) {
    EXPECT_EQ(std::count(stranded.begin(), stranded.end(), s.module_id), 0);
  }
  sim::validate_or_throw(sys, result.schedule, faults);
}

TEST(Replan, StrandedProcessorCascadesToItsExclusiveClients) {
  // Regression: a processor that loses its own test (untestable, but
  // NOT in the fault set's processor list) used to leave the cores it
  // exclusively served marked testable, and the planner threw "planner
  // stuck" instead of replan reporting them as coverage lost.
  //
  // 1x4 line, ATE ports on routers 0/1, leon_1 at router 3, leon_2 at
  // router 0, every plain core at router 2.  Failing the 1->2 channel
  // kills the ATE stimulus leg (0 -> 2) and leon_2's serving leg
  // (0 -> 2) for every core at router 2, and leon_1's own test
  // (0 -> 3): the cores' only surviving pairs use leon_1, which can
  // never be tested, so the loss must cascade.
  itc02::Soc soc = itc02::with_processors(itc02::builtin_by_name("d695"),
                                          itc02::ProcessorKind::kLeon, 2);
  const int leon_1 = 11;
  const int leon_2 = 12;
  noc::Mesh mesh(4, 1);
  std::vector<core::CorePlacement> placement;
  for (const itc02::Module& m : soc.modules) {
    placement.push_back({m.id, m.id == leon_1 ? 3 : (m.id == leon_2 ? 0 : 2)});
  }
  const SystemModel sys(std::move(soc), std::move(mesh), std::move(placement), 0, 1,
                        PlannerParams::paper());
  noc::FaultSet faults;
  faults.fail_channel(sys.mesh().channel_between(1, 2));

  SearchOptions options;
  const ReplanResult result =
      replan(sys, power::PowerBudget::unconstrained(), faults, options);
  // leon_2 (router 0: empty stimulus leg, response 0 -> 1) survives;
  // everything else is lost — leon_1 directly, the rest by cascade.
  EXPECT_EQ(result.planned_modules, std::vector<int>{leon_2});
  EXPECT_TRUE(result.dead_modules.empty());  // nothing in the fault set died
  EXPECT_EQ(result.untestable_modules.size(), sys.soc().modules.size() - 1);
  EXPECT_EQ(result.schedule.sessions.size(), 1u);
  sim::validate_or_throw(sys, result.schedule, faults);
}

TEST(Replan, ProcessorsServingOnlyEachOtherAreLostNotStuck) {
  // Regression: with the ATE input's router dead no processor can take
  // its own test, yet each still has pairs through the others.  The
  // testability fixpoint kept that cycle, and the planner threw
  // "planner stuck at t=0" instead of replan reporting coverage lost.
  const SystemModel sys =
      SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 4, PlannerParams::paper());
  noc::FaultSet faults;
  faults.fail_router(sys.ate_input());
  const core::PairTable degraded(sys, faults);
  int cycle_members = 0;
  for (const itc02::Module& m : sys.soc().modules) {
    if (m.is_processor && degraded.has_pairs(m.id)) ++cycle_members;
  }
  ASSERT_GE(cycle_members, 2);  // the scenario really has a processor cycle

  const ReplanResult result =
      replan(sys, power::PowerBudget::unconstrained(), faults, SearchOptions{});
  EXPECT_TRUE(result.planned_modules.empty());
  EXPECT_TRUE(result.schedule.sessions.empty());
  EXPECT_EQ(result.dead_modules.size() + result.untestable_modules.size(),
            sys.soc().modules.size());
}

TEST(Replan, PowerInfeasibleDetourBecomesUntestableNotAThrow) {
  // Regression: a fault that forces a pricier detour used to trip the
  // planner's feasibility precheck inside every search evaluation when
  // the budget no longer covered the module's cheapest surviving pair;
  // the replan must reclassify such modules as coverage lost instead.
  const SystemModel sys =
      SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 2, PlannerParams::paper());
  const core::PairTable pristine(sys);
  // A budget that admits every pristine module but nothing pricier:
  // the costliest module has zero headroom, so any detour surcharge on
  // it is infeasible.
  double costliest = 0.0;
  for (const itc02::Module& m : sys.soc().modules) {
    costliest = std::max(costliest, pristine.cheapest_power(m.id));
  }
  const power::PowerBudget budget{costliest};
  (void)core::plan_tests(sys, budget);  // sanity: pristine plans fine

  SearchOptions options;
  Rng rng(0xBAD);
  bool saw_power_loss = false;
  for (int trial = 0; trial < 40; ++trial) {
    noc::FaultSet faults;
    faults.fail_channel(static_cast<noc::ChannelId>(
        rng.below(static_cast<std::uint64_t>(sys.mesh().channel_count()))));
    // Must never throw; modules the degraded budget cannot cover are
    // reported, not fatal.
    const ReplanResult result = replan(sys, budget, faults, options, pristine);
    sim::validate_or_throw(sys, result.schedule, faults);
    for (const int id : result.untestable_modules) {
      const core::PairTable degraded(sys, faults);
      if (degraded.has_pairs(id)) saw_power_loss = true;  // routable but too pricey
    }
  }
  EXPECT_TRUE(saw_power_loss) << "no scenario exercised the power-infeasible path";
}

/// The directed channels named "from:to" by router ids.
noc::FaultSet failed_links(const SystemModel& sys, const std::vector<std::pair<int, int>>& links) {
  noc::FaultSet faults;
  for (const auto& [from, to] : links) faults.fail_channel(sys.mesh().channel_between(from, to));
  return faults;
}

TEST(Replan, CircuitPairsNeverHoldOneChannelOnBothLegs) {
  // Regression: under kCircuit a fault detour could send a pair's
  // stimulus and response legs through one directed channel, which the
  // two circuits can never hold together.  The first-available plan
  // used such a pair (module 5 on the ATE pair, both legs on 6->10) and
  // failed validation; the earliest-completion plan booked the channel
  // twice and threw (module 3, both legs on 1->5).  Such pairs are not
  // offered, so both replans succeed and validate.
  struct Repro {
    core::ResourceChoice choice;
    std::vector<std::pair<int, int>> links;
  };
  for (const Repro& repro :
       {Repro{core::ResourceChoice::kFirstAvailable,
              {{0, 4}, {3, 7}, {5, 4}, {6, 7}, {7, 11}, {10, 9}, {13, 9}, {11, 10}, {14, 15}}},
        Repro{core::ResourceChoice::kEarliestCompletion,
              {{0, 4}, {1, 2}, {2, 6}, {7, 3}, {5, 9}, {7, 11}, {9, 8}, {9, 13}}}}) {
    PlannerParams params = PlannerParams::paper();
    params.channel_model = core::ChannelModel::kCircuit;
    params.resource_choice = repro.choice;
    const SystemModel sys =
        SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 2, params);
    const noc::FaultSet faults = failed_links(sys, repro.links);
    SCOPED_TRACE(faults.describe());
    const core::PairTable pristine(sys);
    const power::PowerBudget budget = power::PowerBudget::unconstrained();
    const ReplanResult scratch = replan(sys, budget, faults, SearchOptions{});
    const ReplanResult incremental = replan(sys, budget, faults, SearchOptions{}, pristine);
    expect_same_schedule(scratch.schedule, incremental.schedule);
    EXPECT_FALSE(scratch.schedule.sessions.empty());
    const sim::ValidationReport report = sim::validate(sys, scratch.schedule, faults);
    EXPECT_TRUE(report.ok()) << report.violations.front();
  }
}

TEST(Replan, BitIdenticalAcrossJobsOnAllPaperSocs) {
  for (const std::string& soc : itc02::builtin_names()) {
    const SystemModel sys =
        SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, 4, PlannerParams::paper());
    const power::PowerBudget budget = power::PowerBudget::unconstrained();
    const noc::FaultSet faults = scenario_for(sys);
    for (const StrategyKind kind :
         {StrategyKind::kRestart, StrategyKind::kAnneal, StrategyKind::kLocal}) {
      SearchOptions options;
      options.strategy = kind;
      options.iters = 12;
      options.seed = 0x5EED;
      options.jobs = 1;
      const ReplanResult reference = replan(sys, budget, faults, options);
      for (const unsigned jobs : {2u, 8u}) {
        options.jobs = jobs;
        const ReplanResult parallel = replan(sys, budget, faults, options);
        expect_same_schedule(reference.schedule, parallel.schedule);
      }
    }
  }
}

}  // namespace
}  // namespace nocsched::search
