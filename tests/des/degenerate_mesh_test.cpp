// Degenerate meshes in the DES replay: 1x1 (every route empty, all
// traffic through local ports), 1xN and Nx1 lines (single-bend-free XY
// routes, no detours available).  These edge paths gate the
// fault-detour fallback: an empty route must never be "detoured", and a
// line mesh must lose sessions rather than invent one.

#include <gtest/gtest.h>

#include <vector>

#include "core/placement.hpp"
#include "core/scheduler.hpp"
#include "des/replay.hpp"
#include "itc02/builtin.hpp"
#include "noc/fault.hpp"
#include "sim/cross_check.hpp"
#include "sim/robustness.hpp"
#include "sim/validate.hpp"

namespace nocsched::des {
namespace {

using core::PlannerParams;
using core::SystemModel;

SystemModel degenerate_system(int cols, int rows, int procs) {
  itc02::Soc soc = itc02::builtin_by_name("d695");
  if (procs > 0) soc = itc02::with_processors(std::move(soc), itc02::ProcessorKind::kLeon, procs);
  noc::Mesh mesh(cols, rows);
  auto placement = core::default_placement(soc, mesh);
  const noc::RouterId in = core::default_ate_input(mesh);
  const noc::RouterId out = core::default_ate_output(mesh);
  return SystemModel(std::move(soc), std::move(mesh), std::move(placement), in, out,
                     PlannerParams::paper());
}

void expect_replay_cross_checks(const SystemModel& sys) {
  const core::Schedule plan = core::plan_tests(sys, power::PowerBudget::unconstrained());
  sim::validate_or_throw(sys, plan);
  const SimTrace trace = replay(sys, plan);
  EXPECT_EQ(trace.sessions.size(), plan.sessions.size());
  const sim::CrossCheckReport check = sim::cross_check(sys, plan, trace);
  EXPECT_TRUE(check.ok()) << [&] {
    std::string all;
    for (const std::string& m : check.mismatches) all += m + "; ";
    return all;
  }();
}

TEST(DegenerateMesh, SingleRouterReplaysThroughLocalPorts) {
  const SystemModel sys = degenerate_system(1, 1, 2);
  EXPECT_EQ(sys.mesh().channel_count(), 0);
  EXPECT_EQ(sys.ate_input(), sys.ate_output());  // one router hosts both
  const core::Schedule plan = core::plan_tests(sys, power::PowerBudget::unconstrained());
  for (const core::Session& s : plan.sessions) {
    EXPECT_TRUE(s.path_in.empty());
    EXPECT_TRUE(s.path_out.empty());
  }
  expect_replay_cross_checks(sys);
  const SimTrace trace = replay(sys, plan);
  EXPECT_EQ(trace.channels.size(), 0u);  // nothing ever crossed the mesh
  for (const SessionTrace& t : trace.sessions) {
    EXPECT_GT(t.flits_in + t.flits_out, 0u);  // local ports still carried data
    EXPECT_EQ(t.blocked_cycles, 0u);          // local ports are private
  }
}

TEST(DegenerateMesh, LineMeshesReplayAndCrossCheck) {
  expect_replay_cross_checks(degenerate_system(4, 1, 2));  // Nx1
  expect_replay_cross_checks(degenerate_system(1, 4, 2));  // 1xN
  expect_replay_cross_checks(degenerate_system(1, 10, 0));  // longer line, no CPUs
  expect_replay_cross_checks(degenerate_system(2, 1, 1));  // minimal line
}

TEST(DegenerateMesh, SingleRouterFaultsOnlyKillProcessors) {
  const SystemModel sys = degenerate_system(1, 1, 2);
  const core::Schedule plan = core::plan_tests(sys, power::PowerBudget::unconstrained());
  // No channels exist to fail; a processor fault is the only possible
  // degradation and must classify cleanly.
  noc::FaultSet faults;
  faults.fail_processor(sys.soc().processor_ids().front());
  const sim::RobustnessReport report = sim::assess_robustness(sys, plan, faults, replay(sys, plan));
  EXPECT_GT(report.lost, 0u);
  EXPECT_EQ(report.unaffected + report.delayed + report.lost, plan.sessions.size());
}

TEST(DegenerateMesh, FailedSoleRouterLosesEverySession) {
  const SystemModel sys = degenerate_system(1, 1, 0);
  const core::Schedule plan = core::plan_tests(sys, power::PowerBudget::unconstrained());
  noc::FaultSet faults;
  faults.fail_router(0);
  const DegradedReplay degraded = replay_degraded(sys, plan, faults);
  EXPECT_EQ(degraded.lost.size(), plan.sessions.size());
  EXPECT_TRUE(degraded.trace.sessions.empty());
  EXPECT_EQ(degraded.trace.observed_makespan, 0u);
}

}  // namespace
}  // namespace nocsched::des
