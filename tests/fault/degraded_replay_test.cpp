#include "des/replay.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/placement.hpp"
#include "core/scheduler.hpp"
#include "itc02/builtin.hpp"
#include "sim/robustness.hpp"
#include "sim/validate.hpp"

namespace nocsched::des {
namespace {

using core::PlannerParams;
using core::SystemModel;

SystemModel leon_d695(int procs) {
  return SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, procs,
                                   PlannerParams::paper());
}

TEST(DegradedReplay, EmptyFaultSetMatchesPlainReplay) {
  const SystemModel sys = leon_d695(4);
  const core::Schedule plan = core::plan_tests(sys, power::PowerBudget::unconstrained());
  const SimTrace plain = replay(sys, plan);
  const DegradedReplay degraded = replay_degraded(sys, plan, noc::FaultSet{});
  EXPECT_TRUE(degraded.lost.empty());
  ASSERT_EQ(degraded.trace.sessions.size(), plain.sessions.size());
  EXPECT_EQ(degraded.trace.observed_makespan, plain.observed_makespan);
  EXPECT_EQ(degraded.trace.events_processed, plain.events_processed);
  for (std::size_t i = 0; i < plain.sessions.size(); ++i) {
    EXPECT_EQ(degraded.trace.sessions[i].observed_start, plain.sessions[i].observed_start);
    EXPECT_EQ(degraded.trace.sessions[i].observed_end, plain.sessions[i].observed_end);
  }
}

TEST(DegradedReplay, DeadProcessorCascadesToItsClients) {
  const SystemModel sys = leon_d695(4);
  const core::Schedule plan = core::plan_tests(sys, power::PowerBudget::unconstrained());
  const int dead = sys.soc().processor_ids().front();
  noc::FaultSet faults;
  faults.fail_processor(dead);
  const DegradedReplay degraded = replay_degraded(sys, plan, faults);

  std::map<int, std::string> lost;
  for (const LostSession& l : degraded.lost) lost.emplace(l.module_id, l.reason);
  ASSERT_TRUE(lost.count(dead));
  EXPECT_NE(lost[dead].find("failed processor"), std::string::npos);

  // Every session the plan served through the dead processor is lost
  // too, and no surviving trace session mentions it.
  for (const core::Session& s : plan.sessions) {
    const bool uses_dead =
        [&] {
          for (const int r : {s.source_resource, s.sink_resource}) {
            const core::Endpoint& ep = sys.endpoints()[static_cast<std::size_t>(r)];
            if (ep.is_processor() && ep.processor_module == dead) return true;
          }
          return false;
        }();
    if (uses_dead) {
      EXPECT_TRUE(lost.count(s.module_id)) << "module " << s.module_id;
    }
  }
  for (const SessionTrace& t : degraded.trace.sessions) {
    EXPECT_FALSE(lost.count(t.module_id));
    EXPECT_GT(t.observed_end, t.observed_start);
  }
  EXPECT_EQ(degraded.trace.sessions.size() + degraded.lost.size(), plan.sessions.size());
}

TEST(DegradedReplay, DetouredSessionsStillDeliverEveryPattern) {
  const SystemModel sys = leon_d695(4);
  const core::Schedule plan = core::plan_tests(sys, power::PowerBudget::unconstrained());
  // Cut one mid-mesh link: 4x4 offers detours, so nothing is lost.
  noc::FaultSet faults;
  faults.fail_channel(sys.mesh().channel_count() / 2);
  const DegradedReplay degraded = replay_degraded(sys, plan, faults);
  EXPECT_TRUE(degraded.lost.empty());
  ASSERT_EQ(degraded.trace.sessions.size(), plan.sessions.size());
  const SimTrace baseline = replay(sys, plan);
  for (const SessionTrace& t : degraded.trace.sessions) {
    const SessionTrace& base = baseline.session_for(t.module_id);
    EXPECT_EQ(t.patterns, base.patterns);
    EXPECT_EQ(t.flits_in, base.flits_in);
    EXPECT_EQ(t.flits_out, base.flits_out);
  }
}

TEST(Robustness, ClassifiesEverySessionExactlyOnce) {
  const SystemModel sys = leon_d695(4);
  const core::Schedule plan = core::plan_tests(sys, power::PowerBudget::unconstrained());
  noc::FaultSet faults;
  faults.fail_channel(sys.mesh().channel_count() / 2);
  faults.fail_processor(sys.soc().processor_ids().front());
  const sim::RobustnessReport report = sim::assess_robustness(sys, plan, faults, replay(sys, plan));

  EXPECT_EQ(report.sessions.size(), plan.sessions.size());
  EXPECT_EQ(report.unaffected + report.delayed + report.lost, plan.sessions.size());
  EXPECT_GT(report.lost, 0u);
  EXPECT_EQ(report.planned_makespan, plan.makespan);
  for (const sim::SessionRobustness& s : report.sessions) {
    switch (s.fate) {
      case sim::SessionFate::kUnroutable:
        EXPECT_FALSE(s.reason.empty());
        EXPECT_EQ(s.degraded_end, 0u);
        break;
      case sim::SessionFate::kUnaffected:
        EXPECT_EQ(s.degraded_start, s.baseline_start);
        EXPECT_EQ(s.degraded_end, s.baseline_end);
        EXPECT_EQ(s.delay, 0);
        break;
      case sim::SessionFate::kDelayed:
        EXPECT_TRUE(s.degraded_start != s.baseline_start ||
                    s.degraded_end != s.baseline_end);
        break;
    }
  }
  if (report.baseline_makespan > 0) {
    EXPECT_DOUBLE_EQ(report.makespan_stretch,
                     static_cast<double>(report.degraded_makespan) /
                         static_cast<double>(report.baseline_makespan));
  }
}

TEST(Robustness, NoFaultsMeansEverySessionUnaffected) {
  const SystemModel sys = leon_d695(2);
  const core::Schedule plan = core::plan_tests(sys, power::PowerBudget::unconstrained());
  const sim::RobustnessReport report =
      sim::assess_robustness(sys, plan, noc::FaultSet{}, replay(sys, plan));
  EXPECT_EQ(report.unaffected, plan.sessions.size());
  EXPECT_EQ(report.delayed, 0u);
  EXPECT_EQ(report.lost, 0u);
  EXPECT_DOUBLE_EQ(report.makespan_stretch, 1.0);
}

TEST(DegradedReplay, LineMeshCutStrandsDownstreamCores) {
  // 1x4 line, every module reachable only through the line: cutting the
  // last link makes the far router's modules unroutable — the
  // degenerate-mesh edge the detour fallback cannot save.
  itc02::Soc soc = itc02::builtin_by_name("d695");
  noc::Mesh mesh(4, 1);
  auto placement = core::default_placement(soc, mesh);
  // ATE ports at the near end (routers 0 and 1), so the cut strands
  // only router 3 (its stimulus leg dies; every other session's routes
  // stay clear of the 2->3 channel).
  const SystemModel sys(std::move(soc), noc::Mesh(mesh), std::move(placement), 0, 1,
                        PlannerParams::paper());
  const core::Schedule plan = core::plan_tests(sys, power::PowerBudget::unconstrained());
  noc::FaultSet faults;
  faults.fail_channel(sys.mesh().channel_between(2, 3));
  const DegradedReplay degraded = replay_degraded(sys, plan, faults);
  ASSERT_FALSE(degraded.lost.empty());
  for (const LostSession& l : degraded.lost) {
    EXPECT_EQ(sys.router_of(l.module_id), 3) << l.reason;
    EXPECT_NE(l.reason.find("no surviving route"), std::string::npos);
  }
  for (const SessionTrace& t : degraded.trace.sessions) {
    EXPECT_NE(sys.router_of(t.module_id), 3);
  }
}

}  // namespace
}  // namespace nocsched::des
