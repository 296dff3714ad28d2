// Edge cases of the online fault-timeline engine: events at the very
// start, after everything finished, on already-tested silicon, and in
// immediate succession — plus the determinism contract (bit-identical
// at any --jobs count).

#include "sim/timeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "core/scheduler.hpp"
#include "power/budget.hpp"
#include "report/timeline_report.hpp"
#include "search/fault_stream.hpp"

namespace nocsched::sim {
namespace {

core::SystemModel d695() {
  return core::SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 4,
                                         core::PlannerParams::paper());
}

void expect_valid(const core::SystemModel& sys, const search::FaultStream& stream,
                  const TimelineResult& result) {
  const TimelineCheck check = validate_timeline(sys, stream, result);
  EXPECT_TRUE(check.ok());
  for (const std::string& v : check.violations) ADD_FAILURE() << v;
}

bool covered(const TimelineResult& result, int module_id) {
  return std::binary_search(result.covered_modules.begin(), result.covered_modules.end(),
                            module_id);
}

TEST(Timeline, EmptyStreamIsOnePristineEpoch) {
  const core::SystemModel sys = d695();
  const power::PowerBudget budget = power::PowerBudget::unconstrained();
  const search::FaultStream stream;  // no events
  const TimelineResult result =
      replay_timeline(sys, budget, stream, search::SearchOptions{});
  expect_valid(sys, stream, result);
  ASSERT_EQ(result.epochs.size(), 1u);
  EXPECT_EQ(result.uncovered_modules.size(), 0u);
  EXPECT_DOUBLE_EQ(result.coverage_retained(), 1.0);
  EXPECT_DOUBLE_EQ(result.makespan_stretch(), 1.0);
  EXPECT_EQ(result.wasted_cycles, 0u);
  EXPECT_EQ(result.final_makespan, result.pristine_makespan);
}

TEST(Timeline, EventAtCycleZeroCancelsEverything) {
  const core::SystemModel sys = d695();
  const power::PowerBudget budget = power::PowerBudget::unconstrained();
  search::FaultStream stream;
  noc::FaultSet increment;
  increment.fail_channel(0);
  stream.events.push_back({0, increment});
  const TimelineResult result =
      replay_timeline(sys, budget, stream, search::SearchOptions{});
  expect_valid(sys, stream, result);
  ASSERT_EQ(result.epochs.size(), 2u);
  // Nothing had run a single cycle: no completions, no losses, no
  // wasted work — the whole test happens in epoch 1 on the degraded
  // mesh, starting at cycle 0.
  EXPECT_EQ(result.epochs[0].completed, 0u);
  EXPECT_EQ(result.epochs[0].lost, 0u);
  EXPECT_EQ(result.epochs[0].drained, 0u);
  EXPECT_EQ(result.epochs[0].cancelled, result.epochs[0].replan.planned_modules.size());
  EXPECT_EQ(result.epochs[1].start_cycle, 0u);
  EXPECT_EQ(result.wasted_cycles, 0u);
  EXPECT_DOUBLE_EQ(result.coverage_retained(), 1.0);
}

TEST(Timeline, EventAfterMakespanIsANoOp) {
  const core::SystemModel sys = d695();
  const power::PowerBudget budget = power::PowerBudget::unconstrained();
  const search::FaultStream pristine;
  const TimelineResult baseline =
      replay_timeline(sys, budget, pristine, search::SearchOptions{});

  search::FaultStream stream;
  noc::FaultSet increment;
  increment.fail_channel(0);
  stream.events.push_back({baseline.final_makespan + 1000, increment});
  const TimelineResult result =
      replay_timeline(sys, budget, stream, search::SearchOptions{});
  expect_valid(sys, stream, result);
  ASSERT_EQ(result.epochs.size(), 2u);
  // Every session finished before the event struck; the post-event
  // epoch has nothing left to plan and the outcome equals the pristine
  // run's.
  EXPECT_EQ(result.epochs[0].completed + result.epochs[0].drained,
            baseline.completed.size());
  EXPECT_EQ(result.epochs[0].lost, 0u);
  EXPECT_EQ(result.epochs[0].cancelled, 0u);
  EXPECT_EQ(result.epochs[1].replan.planned_modules.size(), 0u);
  EXPECT_EQ(result.final_makespan, baseline.final_makespan);
  EXPECT_DOUBLE_EQ(result.coverage_retained(), 1.0);
  EXPECT_DOUBLE_EQ(result.makespan_stretch(), 1.0);
  EXPECT_EQ(result.wasted_cycles, 0u);
}

TEST(Timeline, KillingAFinishedProcessorKeepsItsCoverage) {
  const core::SystemModel sys = d695();
  const power::PowerBudget budget = power::PowerBudget::unconstrained();
  const search::FaultStream pristine;
  const TimelineResult baseline =
      replay_timeline(sys, budget, pristine, search::SearchOptions{});

  // The processor whose own test finishes first, and when it does.
  int proc = 0;
  std::uint64_t done_at = 0;
  for (const TimelineSession& s : baseline.completed) {
    if (!sys.soc().module(s.module_id).is_processor) continue;
    if (proc == 0 || s.abs_end < done_at) {
      proc = s.module_id;
      done_at = s.abs_end;
    }
  }
  ASSERT_NE(proc, 0);

  search::FaultStream stream;
  noc::FaultSet increment;
  increment.fail_processor(proc);
  stream.events.push_back({done_at + 1, increment});
  const TimelineResult result =
      replay_timeline(sys, budget, stream, search::SearchOptions{});
  expect_valid(sys, stream, result);
  // The processor was tested before it died: its module stays covered
  // even though it serves no further epoch.
  EXPECT_TRUE(covered(result, proc));
  // And its completion is the pristine one — tested exactly once,
  // before the event.
  for (const TimelineSession& s : result.completed) {
    if (s.module_id == proc) {
      EXPECT_EQ(s.epoch, 0u);
      EXPECT_LE(s.abs_end, done_at + 1);
    }
  }
}

TEST(Timeline, BackToBackEventsWithNothingCompletingBetween) {
  const core::SystemModel sys = d695();
  const power::PowerBudget budget = power::PowerBudget::unconstrained();
  const search::FaultStream pristine;
  const TimelineResult baseline =
      replay_timeline(sys, budget, pristine, search::SearchOptions{});

  const std::uint64_t mid = baseline.final_makespan / 2;
  search::FaultStream stream;
  noc::FaultSet first;
  first.fail_channel(0);
  noc::FaultSet second;
  second.fail_channel(1);
  stream.events.push_back({mid, first});
  stream.events.push_back({mid + 1, second});
  const TimelineResult result =
      replay_timeline(sys, budget, stream, search::SearchOptions{});
  expect_valid(sys, stream, result);
  ASSERT_EQ(result.epochs.size(), 3u);
  // One cycle passed between the events; epoch 1 cannot have finished
  // anything in it, and time never runs backwards across the epochs.
  EXPECT_EQ(result.epochs[1].completed, 0u);
  EXPECT_GE(result.epochs[1].start_cycle, result.epochs[0].start_cycle);
  EXPECT_GE(result.epochs[2].start_cycle, result.epochs[1].start_cycle);
}

TEST(Timeline, BitIdenticalAtAnyJobCount) {
  const core::SystemModel sys = d695();
  const power::PowerBudget budget = power::PowerBudget::unconstrained();
  const search::FaultStream stream = search::random_fault_stream(sys, 3, 0xFA017, 120000);
  search::SearchOptions options;
  options.strategy = search::StrategyKind::kAnneal;
  options.iters = 64;
  options.jobs = 1;
  const TimelineResult reference = replay_timeline(sys, budget, stream, options);
  expect_valid(sys, stream, reference);
  const std::string reference_json = report::timeline_json(sys, stream, reference);
  for (const unsigned jobs : {2U, 8U}) {
    search::SearchOptions jopts = options;
    jopts.jobs = jobs;
    const TimelineResult again = replay_timeline(sys, budget, stream, jopts);
    EXPECT_EQ(report::timeline_json(sys, stream, again), reference_json)
        << "timeline diverged at jobs " << jobs;
  }
}

TEST(Timeline, ReplayDeadlockNamesTheWaitForCycle) {
  // `nocsched_cli --soc d695 --procs 8 --fault-stream 8 --fault-seed 5`:
  // in epoch 7 module 4's stimulus leg [43 31 17 14] and module 8's
  // [14 20 34 43] (at least one a fault detour) each hold a channel the
  // other waits for, and the wormhole replay stalls.  The error names
  // the cycle.  Once fault detours obey a turn model, this becomes a
  // test that the timeline replays to completion and validates.
  const core::SystemModel sys = core::SystemModel::paper_system(
      "d695", itc02::ProcessorKind::kLeon, 8, core::PlannerParams::paper());
  const power::PowerBudget budget = power::PowerBudget::unconstrained();
  const core::Schedule pristine = core::plan_tests(sys, budget);
  const search::FaultStream stream = search::random_fault_stream(sys, 8, 5, pristine.makespan);
  try {
    static_cast<void>(replay_timeline(sys, budget, stream, search::SearchOptions{}));
    ADD_FAILURE() << "the seed-5 stream replayed without a deadlock";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "replay deadlock: modules 4, 8 hold channels in the wormhole wait-for cycle "
                 "14 -> 20 -> 34 -> 43 -> 31 -> 17 -> 14 — their routes form a cyclic channel "
                 "dependency");
  }
}

}  // namespace
}  // namespace nocsched::sim
