#include "sim/validate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "core/scheduler.hpp"
#include "noc/routing.hpp"
#include "power/step_function.hpp"
#include "search/replan.hpp"
#include "support/power_profile.hpp"

namespace nocsched::sim {
namespace {

using core::PlannerParams;
using core::Schedule;
using core::Session;
using core::SystemModel;

struct Fixture {
  Fixture()
      : sys(SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 2,
                                      PlannerParams::paper())),
        schedule(core::plan_tests(sys, power::PowerBudget::fraction_of_total(sys.soc(), 0.5))) {}
  SystemModel sys;
  Schedule schedule;
};

bool has_violation(const ValidationReport& report, std::string_view needle) {
  for (const std::string& v : report.violations) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(Validate, AcceptsPlannerOutput) {
  Fixture f;
  const ValidationReport report = validate(f.sys, f.schedule);
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_NO_THROW(validate_or_throw(f.sys, f.schedule));
}

TEST(Validate, DetectsMissingModule) {
  Fixture f;
  f.schedule.sessions.pop_back();
  const ValidationReport report = validate(f.sys, f.schedule);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_violation(report, "tested 0 times"));
}

TEST(Validate, DetectsDuplicateTest) {
  Fixture f;
  f.schedule.sessions.push_back(f.schedule.sessions.front());
  EXPECT_TRUE(has_violation(validate(f.sys, f.schedule), "tested 2 times"));
}

TEST(Validate, DetectsUnknownModule) {
  Fixture f;
  f.schedule.sessions.front().module_id = 999;
  EXPECT_TRUE(has_violation(validate(f.sys, f.schedule), "unknown module"));
}

TEST(Validate, DetectsEmptySession) {
  Fixture f;
  f.schedule.sessions.front().end = f.schedule.sessions.front().start;
  EXPECT_TRUE(has_violation(validate(f.sys, f.schedule), "empty session"));
}

TEST(Validate, DetectsWrongMakespan) {
  Fixture f;
  f.schedule.makespan += 1;
  EXPECT_TRUE(has_violation(validate(f.sys, f.schedule), "makespan"));
}

TEST(Validate, DetectsResourceDoubleBooking) {
  Fixture f;
  // Force the second session onto the first session's resources and
  // window.
  Session& a = f.schedule.sessions[0];
  Session& b = f.schedule.sessions[1];
  b.source_resource = a.source_resource;
  b.sink_resource = a.sink_resource;
  b.start = a.start;
  b.end = a.end;
  EXPECT_TRUE(has_violation(validate(f.sys, f.schedule), "double-booked"));
}

TEST(Validate, DetectsSameCpuResourceDoubleBooking) {
  // A processor playing both roles still occupies the resource: two
  // same-CPU sessions forced onto one window must conflict.
  Fixture f;
  Session* first = nullptr;
  Session* second = nullptr;
  for (Session& a : f.schedule.sessions) {
    if (a.source_resource != a.sink_resource) continue;
    for (Session& b : f.schedule.sessions) {
      if (&a == &b) continue;
      if (b.source_resource == a.source_resource && b.sink_resource == a.sink_resource) {
        first = &a;
        second = &b;
        break;
      }
    }
    if (first != nullptr) break;
  }
  ASSERT_NE(first, nullptr) << "plan has no two same-CPU sessions on one processor";
  const std::uint64_t d = second->duration();
  second->start = first->start;
  second->end = second->start + d;
  EXPECT_TRUE(has_violation(validate(f.sys, f.schedule), "double-booked"));
}

TEST(Validate, DetectsChannelOversubscription) {
  // Multiplexed channel model: a recorded bandwidth above full capacity
  // must trip the per-channel load check, independent of the
  // recorded-vs-cost-model comparison.
  Fixture f;
  for (Session& s : f.schedule.sessions) {
    if (!s.path_in.empty()) {
      s.bandwidth_in = 1.5;
      break;
    }
  }
  EXPECT_TRUE(has_violation(validate(f.sys, f.schedule), "oversubscribed"));
}

/// The Fixture plan with every leg bandwidth zeroed except two
/// overlapping stimulus legs on one path, drawing 0.5 and `second`.
Fixture shared_stimulus_path(double second) {
  Fixture f;
  for (Session& s : f.schedule.sessions) {
    s.bandwidth_in = 0.0;
    s.bandwidth_out = 0.0;
  }
  std::vector<Session*> legs;
  for (Session& s : f.schedule.sessions) {
    if (!s.path_in.empty() && legs.size() < 2) legs.push_back(&s);
  }
  EXPECT_EQ(legs.size(), 2u);
  Session& a = *legs[0];
  Session& b = *legs[1];
  b.path_in = a.path_in;
  b.end = a.start + b.duration();
  b.start = a.start;
  a.bandwidth_in = 0.5;
  b.bandwidth_in = second;
  return f;
}

TEST(Validate, ChannelCapacityUsesThePlannersTolerance) {
  // The planner's load envelope admits a second leg that brings the
  // channel to 1.0 + 1.5e-9, inside within_budget's 1e-9 * (1 + 1)
  // slack at capacity 1.0; the validator must not flag that load.
  power::StepFunction envelope;
  envelope.add({0, 10}, 0.5);
  EXPECT_TRUE(envelope.fits_at(0, 0.5 + 1.5e-9, 1.0));
  EXPECT_FALSE(envelope.fits_at(0, 0.5 + 3e-9, 1.0));

  Fixture admitted = shared_stimulus_path(0.5 + 1.5e-9);
  EXPECT_FALSE(has_violation(validate(admitted.sys, admitted.schedule), "oversubscribed"));
  Fixture over = shared_stimulus_path(0.5 + 3e-9);
  EXPECT_TRUE(has_violation(validate(over.sys, over.schedule), "oversubscribed"));
}

TEST(Validate, DetectsChannelDoubleBookingInCircuitModel) {
  // Circuit channel model: two sessions holding one directed channel at
  // the same time is a hard conflict.
  core::PlannerParams params = core::PlannerParams::paper();
  params.channel_model = core::ChannelModel::kCircuit;
  const SystemModel sys =
      SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 2, params);
  Schedule schedule = core::plan_tests(sys, power::PowerBudget::unconstrained());
  Session* first = nullptr;
  Session* second = nullptr;
  for (Session& a : schedule.sessions) {
    if (a.path_in.empty()) continue;
    for (Session& b : schedule.sessions) {
      if (&a == &b || b.path_in.empty()) continue;
      if (a.path_in.front() == b.path_in.front()) {
        first = &a;
        second = &b;
        break;
      }
    }
    if (first != nullptr) break;
  }
  ASSERT_NE(first, nullptr) << "no two sessions share a stimulus channel";
  const std::uint64_t d = second->duration();
  second->start = first->start;
  second->end = second->start + d;
  // The overlapping pair also double-books its shared *resource*; pin
  // the channel-table branch specifically ("channel <id> double-booked").
  const ValidationReport report = validate(sys, schedule);
  bool channel_conflict = false;
  for (const std::string& v : report.violations) {
    if (v.rfind("channel ", 0) == 0 && v.find("double-booked") != std::string::npos) {
      channel_conflict = true;
    }
  }
  EXPECT_TRUE(channel_conflict);
}

TEST(Validate, DetectsPowerExceededByCorruptedOverlap) {
  // Compress a power-constrained plan so every session draws at once:
  // the recomputed profile must exceed the recorded budget.
  Fixture f;
  for (Session& s : f.schedule.sessions) {
    const std::uint64_t d = s.duration();
    s.start = 0;
    s.end = d;
  }
  EXPECT_TRUE(has_violation(validate(f.sys, f.schedule), "exceeds budget"));
}

TEST(Validate, DetectsDurationTampering) {
  Fixture f;
  f.schedule.sessions.front().end += 5;
  EXPECT_TRUE(has_violation(validate(f.sys, f.schedule), "cost model"));
}

TEST(Validate, DetectsPowerTampering) {
  Fixture f;
  f.schedule.sessions.front().power += 100.0;
  EXPECT_TRUE(has_violation(validate(f.sys, f.schedule), "power"));
}

TEST(Validate, DetectsBudgetOverrun) {
  Fixture f;
  f.schedule.power_limit = 1.0;  // pretend the budget was tiny
  EXPECT_TRUE(has_violation(validate(f.sys, f.schedule), "exceeds budget"));
}

TEST(Validate, DetectsNonXyPath) {
  Fixture f;
  // Find a session with a non-empty path and break it.
  for (Session& s : f.schedule.sessions) {
    if (!s.path_in.empty()) {
      std::swap(s.path_in.front(), s.path_in.back());
      if (s.path_in.size() == 1) s.path_in.clear();
      break;
    }
  }
  EXPECT_TRUE(has_violation(validate(f.sys, f.schedule), "XY route"));
}

TEST(Validate, DetectsBandwidthTampering) {
  Fixture f;
  for (Session& s : f.schedule.sessions) {
    if (!s.path_in.empty()) {
      s.bandwidth_in += 0.25;
      break;
    }
  }
  EXPECT_TRUE(has_violation(validate(f.sys, f.schedule), "bandwidth"));
}

TEST(Validate, DetectsProcessorUsedBeforeTested) {
  Fixture f;
  // Move a CPU-served session to start before the processor's own test
  // finished.
  for (Session& s : f.schedule.sessions) {
    const auto& src = f.sys.endpoints()[static_cast<std::size_t>(s.source_resource)];
    if (src.is_processor()) {
      const Session& self = f.schedule.session_for(src.processor_module);
      const std::uint64_t d = s.duration();
      s.start = self.start;  // overlaps the self-test
      s.end = s.start + d;
      break;
    }
  }
  EXPECT_TRUE(has_violation(validate(f.sys, f.schedule), "ready"));
}

TEST(Validate, DetectsIllegalRoles) {
  Fixture f;
  Session& s = f.schedule.sessions.front();
  std::swap(s.source_resource, s.sink_resource);  // ATE-out cannot source
  const ValidationReport report = validate(f.sys, f.schedule);
  EXPECT_TRUE(has_violation(report, "cannot source"));
  EXPECT_TRUE(has_violation(report, "cannot sink"));
}

TEST(Validate, DetectsOutOfRangeResources) {
  Fixture f;
  f.schedule.sessions.front().source_resource = 99;
  EXPECT_TRUE(has_violation(validate(f.sys, f.schedule), "out of range"));
}

TEST(Validate, ThrowListsAllViolations) {
  Fixture f;
  f.schedule.sessions.front().power += 1.0;
  f.schedule.makespan += 1;
  try {
    validate_or_throw(f.sys, f.schedule);
    FAIL();
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cost model"), std::string::npos);
    EXPECT_NE(what.find("makespan"), std::string::npos);
  }
}

TEST(Validate, EmptyScheduleOfEmptySystemWouldFailCoverage) {
  Fixture f;
  f.schedule.sessions.clear();
  const ValidationReport report = validate(f.sys, f.schedule);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.violations.size(), 12u);  // one per untested module
}

TEST(Validate, ReportsUnknownModulesInAscendingIdOrder) {
  // Regression lock for the dense coverage counters: unknown ids must
  // still come out in ascending order — negatives, then in-range ids
  // with no module, then ids past the SoC's range — exactly as the old
  // sorted-map walk reported them.
  Fixture f;
  ASSERT_GE(f.schedule.sessions.size(), 3u);
  f.schedule.sessions[0].module_id = 999;  // past the id range
  f.schedule.sessions[1].module_id = -3;   // negative
  f.schedule.sessions[2].module_id = 0;    // in range, but no module has id 0
  const ValidationReport report = validate(f.sys, f.schedule);
  std::vector<std::string> unknown;
  for (const std::string& v : report.violations) {
    if (v.find("unknown module") != std::string::npos) unknown.push_back(v);
  }
  ASSERT_EQ(unknown.size(), 3u);
  EXPECT_NE(unknown[0].find("module -3 "), std::string::npos);
  EXPECT_NE(unknown[1].find("module 0 "), std::string::npos);
  EXPECT_NE(unknown[2].find("module 999 "), std::string::npos);
}

std::string thrown_text(const core::SystemModel& sys, const Schedule& schedule) {
  try {
    (void)validate(sys, schedule);
  } catch (const Error& e) {
    return e.what();
  }
  return "<no throw>";
}

Session& first_with_both_paths(Schedule& schedule) {
  for (Session& s : schedule.sessions) {
    if (!s.path_in.empty() && !s.path_out.empty()) return s;
  }
  throw Error("plan has no session with two non-empty paths");
}

TEST(Validate, RejectsNonFiniteOrNegativeBandwidth) {
  // A multiplexed-model leg books its bandwidth as channel load, which
  // must be a finite, non-negative draw.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  {
    Fixture f;
    first_with_both_paths(f.schedule).bandwidth_in = nan;
    EXPECT_EQ(thrown_text(f.sys, f.schedule), "PowerProfile: bad power value nan");
  }
  {
    Fixture f;
    first_with_both_paths(f.schedule).bandwidth_out = -0.25;
    EXPECT_EQ(thrown_text(f.sys, f.schedule), "PowerProfile: bad power value -0.25");
  }
}

TEST(Validate, RejectsNonFiniteOrNegativePower) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  {
    Fixture f;
    f.schedule.sessions.front().power = nan;
    EXPECT_EQ(thrown_text(f.sys, f.schedule), "PowerProfile: bad power value nan");
  }
  {
    Fixture f;
    f.schedule.sessions.back().power = -1.0;
    EXPECT_EQ(thrown_text(f.sys, f.schedule), "PowerProfile: bad power value -1");
  }
}

TEST(Validate, BandwidthFaultThrowsBeforePowerFault) {
  // Channel load is booked before the power profile is summed, so a bad
  // bandwidth on a late session wins over a bad power on the first.
  Fixture f;
  f.schedule.sessions.front().power = -2.0;
  Session* late = nullptr;
  for (Session& s : f.schedule.sessions) {
    if (!s.path_out.empty()) late = &s;
  }
  ASSERT_NE(late, nullptr);
  ASSERT_NE(late, &f.schedule.sessions.front());
  late->bandwidth_out = -0.5;
  EXPECT_EQ(thrown_text(f.sys, f.schedule), "PowerProfile: bad power value -0.5");
}

TEST(Validate, BadBandwidthOnAnEmptyPathBooksNothing) {
  // No channel carries the leg, so its bandwidth is only compared with
  // the cost model.
  Fixture f;
  Session* local = nullptr;
  for (Session& s : f.schedule.sessions) {
    if (s.path_in.empty()) local = &s;
  }
  ASSERT_NE(local, nullptr) << "no session with an empty stimulus path";
  local->bandwidth_in = -1.0;
  const ValidationReport report = validate(f.sys, f.schedule);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0],
            "module " + std::to_string(local->module_id) +
                ": recorded channel bandwidth != cost model");
}

/// A valid fault-aware replan to tamper with: d695 with two Leon
/// processors, the first one dead, and the first stimulus hop of the
/// pristine plan's first ATE-sourced session cut, so ATE sessions that
/// crossed that hop now detour.
struct FaultFixture {
  FaultFixture()
      : sys(SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 2,
                                      PlannerParams::paper())),
        budget(power::PowerBudget::fraction_of_total(sys.soc(), 0.5)),
        dead(sys.soc().processor_ids().front()) {
    faults.fail_processor(dead);
    for (const Session& s : core::plan_tests(sys, budget).sessions) {
      if (!s.path_in.empty() && !endpoint(s.source_resource).is_processor()) {
        cut = s.path_in.front();
        break;
      }
    }
    faults.fail_channel(cut);
    schedule = search::replan(sys, budget, faults, search::SearchOptions{}).schedule;
  }

  [[nodiscard]] const core::Endpoint& endpoint(int r) const {
    return sys.endpoints()[static_cast<std::size_t>(r)];
  }

  SystemModel sys;
  power::PowerBudget budget;
  int dead = 0;
  noc::ChannelId cut = -1;
  noc::FaultSet faults;
  Schedule schedule;
};

TEST(ValidateFaults, AcceptsReplanOutput) {
  FaultFixture f;
  const ValidationReport report = validate(f.sys, f.schedule, f.faults);
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations[0]);
}

TEST(ValidateFaults, DetectsSessionServedByFailedProcessor) {
  FaultFixture f;
  int dead_endpoint = -1;
  for (std::size_t r = 0; r < f.sys.endpoints().size(); ++r) {
    const core::Endpoint& ep = f.sys.endpoints()[r];
    if (ep.is_processor() && ep.processor_module == f.dead) dead_endpoint = static_cast<int>(r);
  }
  ASSERT_GE(dead_endpoint, 0);
  Session& s = f.schedule.sessions.back();
  s.source_resource = dead_endpoint;
  s.sink_resource = dead_endpoint;
  EXPECT_TRUE(has_violation(validate(f.sys, f.schedule, f.faults),
                            "uses failed processor " + std::to_string(f.dead)));
}

TEST(ValidateFaults, DetectsScheduledFailedProcessor) {
  FaultFixture f;
  Session ghost = f.schedule.sessions.back();
  ghost.module_id = f.dead;
  f.schedule.sessions.push_back(ghost);
  EXPECT_TRUE(has_violation(validate(f.sys, f.schedule, f.faults),
                            "module " + std::to_string(f.dead) +
                                " is a failed processor but is scheduled"));
}

TEST(ValidateFaults, DetectsXyPathThroughFailedChannel) {
  // Undo one detour: the recorded path becomes the XY route the fault
  // cut, which is both the wrong route and a path over dead silicon.
  FaultFixture f;
  ASSERT_GE(f.cut, 0);
  Session* detoured = nullptr;
  for (Session& s : f.schedule.sessions) {
    const std::vector<noc::ChannelId> xy = noc::xy_route(
        f.sys.mesh(), f.endpoint(s.source_resource).router, f.sys.router_of(s.module_id));
    if (xy != s.path_in) {
      s.path_in = xy;
      detoured = &s;
      break;
    }
  }
  ASSERT_NE(detoured, nullptr) << "no session of the replan detours around the cut";
  const ValidationReport report = validate(f.sys, f.schedule, f.faults);
  EXPECT_TRUE(has_violation(
      report, "recorded stimulus path is not the XY route or its fault-aware detour"));
  EXPECT_TRUE(has_violation(report, "path traverses failed channel " + std::to_string(f.cut)));
}

TEST(ValidateFaults, DetectsResponsePathMismatch) {
  FaultFixture f;
  for (Session& s : f.schedule.sessions) {
    if (!s.path_out.empty()) {
      s.path_out.pop_back();
      break;
    }
  }
  EXPECT_TRUE(has_violation(
      validate(f.sys, f.schedule, f.faults),
      "recorded response path is not the XY route or its fault-aware detour"));
}

TEST(ValidateFaults, CoverageIsTheOnlyRuleTheTwoFormsDisagreeOn) {
  // One consistent fault-free plan that omits a module nothing depends
  // on: the complete-plan form reports the gap, the replan form under
  // the empty fault set accepts it.
  Fixture f;
  const auto omitted = std::find_if(
      f.schedule.sessions.begin(), f.schedule.sessions.end(),
      [&](const Session& s) { return !f.sys.soc().module(s.module_id).is_processor; });
  ASSERT_NE(omitted, f.schedule.sessions.end());
  const int module_id = omitted->module_id;
  f.schedule.sessions.erase(omitted);
  power::PowerProfile profile;
  f.schedule.makespan = 0;
  for (const Session& s : f.schedule.sessions) {
    profile.add({s.start, s.end}, s.power);
    f.schedule.makespan = std::max(f.schedule.makespan, s.end);
  }
  f.schedule.peak_power = profile.peak();

  const ValidationReport complete = validate(f.sys, f.schedule);
  ASSERT_EQ(complete.violations.size(), 1u);
  EXPECT_TRUE(has_violation(complete, "module " + std::to_string(module_id)));
  EXPECT_TRUE(has_violation(complete, "tested 0 times (expected 1)"));
  const ValidationReport replan = validate(f.sys, f.schedule, noc::FaultSet{});
  EXPECT_TRUE(replan.ok()) << (replan.violations.empty() ? "" : replan.violations[0]);
}

}  // namespace
}  // namespace nocsched::sim
