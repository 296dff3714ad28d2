#include "des/replay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/interval_set.hpp"
#include "core/scheduler.hpp"
#include "obs/metrics.hpp"
#include "report/trace_report.hpp"
#include "sim/cross_check.hpp"
#include "sim/validate.hpp"

namespace nocsched::des {
namespace {

using core::PlannerParams;
using core::Schedule;
using core::SystemModel;

struct Fixture {
  explicit Fixture(const char* soc = "d695",
                   itc02::ProcessorKind kind = itc02::ProcessorKind::kLeon,
                   std::optional<double> power_fraction = std::nullopt)
      : sys(SystemModel::paper_system(soc, kind, 4, PlannerParams::paper())),
        budget(power_fraction
                   ? power::PowerBudget::fraction_of_total(sys.soc(), *power_fraction)
                   : power::PowerBudget::unconstrained()),
        schedule(core::plan_tests(sys, budget)),
        trace(replay(sys, schedule)) {}
  SystemModel sys;
  power::PowerBudget budget;
  Schedule schedule;
  SimTrace trace;
};

TEST(Replay, HeadAdvancesDispatchDirectlyWhenNothingPendsBeforeThem) {
  // How many held head requests each paper system's replay handles
  // without queuing them (des.direct_dispatches), pinned: running one
  // while an event pends ahead of it moves the ReplayGolden digests, and
  // queuing one that could have run directly moves only this count.
  obs::MetricsRegistry& reg = obs::registry();
  reg.set_enabled(true);
  std::vector<std::uint64_t> got;
  for (const char* soc : {"d695", "p22810", "p93791"}) {
    reg.reset();
    const Fixture f(soc);
    const std::uint64_t direct = reg.snapshot().counter_or("des.direct_dispatches");
    EXPECT_GT(direct, 0u) << soc;
    EXPECT_LT(direct, f.trace.events_processed) << soc;
    got.push_back(direct);
  }
  reg.reset();
  reg.set_enabled(false);
  EXPECT_EQ(got, (std::vector<std::uint64_t>{2263, 15390, 14987}));
}

TEST(Replay, CoversEveryPlannedSession) {
  Fixture f;
  ASSERT_EQ(f.trace.sessions.size(), f.schedule.sessions.size());
  for (const core::Session& planned : f.schedule.sessions) {
    const SessionTrace& t = f.trace.session_for(planned.module_id);
    EXPECT_EQ(t.source_resource, planned.source_resource);
    EXPECT_EQ(t.sink_resource, planned.sink_resource);
    EXPECT_GT(t.patterns, 0u);
  }
}

TEST(Replay, NeverUndercutsThePlan) {
  Fixture f;
  for (const core::Session& planned : f.schedule.sessions) {
    const SessionTrace& t = f.trace.session_for(planned.module_id);
    EXPECT_GE(t.observed_start, planned.start) << "module " << planned.module_id;
    EXPECT_GE(t.observed_end, planned.end) << "module " << planned.module_id;
    EXPECT_GE(t.observed_duration(), planned.duration()) << "module " << planned.module_id;
  }
  EXPECT_GE(f.trace.observed_makespan, f.schedule.makespan);
}

TEST(Replay, DeterministicByteIdenticalTraces) {
  Fixture f;
  const SimTrace again = replay(f.sys, f.schedule);
  const sim::CrossCheckReport check_a = sim::cross_check(f.sys, f.schedule, f.trace);
  const sim::CrossCheckReport check_b = sim::cross_check(f.sys, f.schedule, again);
  EXPECT_EQ(report::trace_json(f.sys, f.trace, check_a),
            report::trace_json(f.sys, again, check_b));
}

TEST(Replay, CrossCheckPassesOnAllPaperSystems) {
  for (const char* soc : {"d695", "p22810", "p93791"}) {
    for (const auto kind : {itc02::ProcessorKind::kLeon, itc02::ProcessorKind::kPlasma}) {
      Fixture f(soc, kind);
      const sim::CrossCheckReport check = sim::cross_check(f.sys, f.schedule, f.trace);
      EXPECT_TRUE(check.ok())
          << soc << "/" << itc02::to_string(kind) << ": "
          << (check.mismatches.empty() ? "" : check.mismatches[0]);
      EXPECT_GE(f.trace.observed_makespan, f.schedule.makespan);
    }
  }
}

TEST(Replay, HonoursThePowerBudgetAtRuntime) {
  Fixture f("d695", itc02::ProcessorKind::kLeon, 0.5);
  EXPECT_TRUE(power::within_budget(f.trace.peak_power, f.budget.limit));
  EXPECT_NEAR(observed_peak_power(f.trace), f.trace.peak_power, 1e-9);
  const sim::CrossCheckReport check = sim::cross_check(f.sys, f.schedule, f.trace);
  EXPECT_TRUE(check.ok()) << (check.mismatches.empty() ? "" : check.mismatches[0]);
}

TEST(Replay, SerializesEndpointsInObservedTime) {
  Fixture f;
  std::vector<IntervalSet> busy(f.sys.endpoints().size());
  for (const SessionTrace& t : f.trace.sessions) {
    const Interval iv{t.observed_start, t.observed_end};
    EXPECT_TRUE(sim::book_session_resources(busy, t.source_resource, t.sink_resource, iv)
                    .empty())
        << "a resource overlaps at module " << t.module_id;
  }
}

TEST(Replay, ChannelUtilizationIsSane) {
  Fixture f;
  ASSERT_FALSE(f.trace.channels.empty());
  for (const ChannelUse& c : f.trace.channels) {
    EXPECT_GT(c.packets, 0u);
    EXPECT_LE(c.busy_cycles, f.trace.observed_makespan);
    EXPECT_LE(c.utilization(f.trace.observed_makespan), 1.0);
  }
  // Channels are reported in ascending id order (stable JSON output).
  EXPECT_TRUE(std::is_sorted(f.trace.channels.begin(), f.trace.channels.end(),
                             [](const ChannelUse& a, const ChannelUse& b) {
                               return a.channel < b.channel;
                             }));
}

TEST(Replay, CountsTrafficAndEvents) {
  Fixture f;
  EXPECT_GT(f.trace.events_processed, 0u);
  EXPECT_GT(f.trace.packets_delivered, 0u);
  std::uint64_t flits = 0;
  for (const SessionTrace& t : f.trace.sessions) flits += t.flits_in + t.flits_out;
  EXPECT_GT(flits, 0u);
  std::uint64_t crossed = 0;
  for (const ChannelUse& c : f.trace.channels) crossed += c.packets;
  // Every mesh-crossing packet holds at least one channel.
  EXPECT_LE(f.trace.packets_delivered, flits + crossed);
}

TEST(Replay, MixedScanAndBistPhasesStayConservative) {
  // A scan test (long scan-out drain) followed by a functional test
  // (tiny drain): responses must still leave the wrapper in pattern
  // order with their own phase's flit sizes, and the session must not
  // undercut the plan.
  itc02::Soc soc;
  soc.name = "mixed";
  itc02::Module m;
  m.id = 1;
  m.name = "scan_then_bist";
  m.inputs = 40;
  m.outputs = 48;
  m.scan_chains = {300, 300};
  m.tests = {{50, /*uses_scan=*/true}, {40, /*uses_scan=*/false}};
  m.test_power = 100.0;
  soc.modules.push_back(m);
  itc02::validate(soc);

  noc::Mesh mesh(2, 2);
  auto placement = core::default_placement(soc, mesh);
  const noc::RouterId ate_in = core::default_ate_input(mesh);
  const noc::RouterId ate_out = core::default_ate_output(mesh);
  const SystemModel sys(std::move(soc), std::move(mesh), std::move(placement), ate_in,
                        ate_out, PlannerParams::paper());
  const Schedule plan = core::plan_tests(sys, power::PowerBudget::unconstrained());
  const SimTrace trace = replay(sys, plan);

  const SessionTrace& t = trace.session_for(1);
  EXPECT_GE(t.observed_end, plan.session_for(1).end);
  // Exact traffic accounting across both phases.
  std::uint64_t expect_in = 0;
  std::uint64_t expect_out = 0;
  for (const wrapper::TestPhase& phase : sys.phases(1)) {
    expect_in += phase.patterns * sys.params().noc.flits_for_bits(phase.stimulus_bits);
    expect_out += phase.patterns * sys.params().noc.flits_for_bits(phase.response_bits);
  }
  EXPECT_EQ(t.flits_in, expect_in);
  EXPECT_EQ(t.flits_out, expect_out);
  const sim::CrossCheckReport check = sim::cross_check(sys, plan, trace);
  EXPECT_TRUE(check.ok()) << (check.mismatches.empty() ? "" : check.mismatches[0]);
}

TEST(Replay, RejectsOutOfRangeResources) {
  Fixture f;
  Schedule broken = f.schedule;
  broken.sessions.front().source_resource = 99;
  EXPECT_THROW((void)replay(f.sys, broken), Error);
}

TEST(Replay, DiagnosesUnmeetableDependencies) {
  Fixture f;
  // Drop a processor's own test: sessions served by that processor can
  // never launch, and the replay must say so rather than hang.
  Schedule broken = f.schedule;
  int serving_processor = -1;
  for (const core::Session& s : f.schedule.sessions) {
    const auto& src = f.sys.endpoints()[static_cast<std::size_t>(s.source_resource)];
    if (src.is_processor()) {
      serving_processor = src.processor_module;
      break;
    }
  }
  ASSERT_NE(serving_processor, -1) << "plan reuses no processor";
  std::erase_if(broken.sessions, [&](const core::Session& s) {
    return s.module_id == serving_processor;
  });
  try {
    (void)replay(f.sys, broken);
    FAIL() << "expected replay to diagnose the deadlock";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos) << e.what();
  }
}

TEST(Replay, StartSlipsOnlyWhenAdmissionGates) {
  // Unconstrained d695: the first session launches exactly on plan.
  Fixture f;
  ASSERT_FALSE(f.trace.sessions.empty());
  EXPECT_EQ(f.trace.sessions.front().observed_start,
            f.trace.sessions.front().planned_start);
  // All launches happen at or after their plan, in observed-start order.
  EXPECT_TRUE(std::is_sorted(f.trace.sessions.begin(), f.trace.sessions.end(),
                             [](const SessionTrace& a, const SessionTrace& b) {
                               return a.observed_start < b.observed_start ||
                                      (a.observed_start == b.observed_start &&
                                       a.module_id <= b.module_id);
                             }));
}

}  // namespace
}  // namespace nocsched::des
