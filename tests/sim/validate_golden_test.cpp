// Golden pin of the validator's exact output: the full, ordered
// `violations` vector on deliberately corrupted plans.  The validator's
// internals (channel bookkeeping, route reuse, cost-model calls) may be
// restructured freely, but every string and its position must survive.
// A failure prints the new vector in source form.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/pair_table.hpp"
#include "core/scheduler.hpp"
#include "search/replan.hpp"
#include "sim/validate.hpp"

namespace nocsched::sim {
namespace {

using core::PlannerParams;
using core::Schedule;
using core::Session;
using core::SystemModel;

std::string source_form(const std::vector<std::string>& violations) {
  std::string out = "actual, in source form:\n{\n";
  for (const std::string& v : violations) out += "    \"" + v + "\",\n";
  return out + "}";
}

void expect_violations(const ValidationReport& report, const std::vector<std::string>& want) {
  EXPECT_EQ(report.violations, want) << source_form(report.violations);
}

SystemModel d695(int procs, core::ChannelModel model = core::ChannelModel::kMultiplexed) {
  PlannerParams params = PlannerParams::paper();
  params.channel_model = model;
  return SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, procs, params);
}

Schedule half_budget_plan(const SystemModel& sys) {
  return core::plan_tests(sys, power::PowerBudget::fraction_of_total(sys.soc(), 0.5));
}

bool uses_channel(const Session& s, noc::ChannelId c) {
  for (const auto* path : {&s.path_in, &s.path_out}) {
    if (std::find(path->begin(), path->end(), c) != path->end()) return true;
  }
  return false;
}

/// Does some session end on a channel at the instant another starts on it?
bool has_same_instant_handoff(const Schedule& plan) {
  for (const Session& a : plan.sessions) {
    for (const Session& b : plan.sessions) {
      if (a.end != b.start) continue;
      for (const auto* path : {&a.path_in, &a.path_out}) {
        for (const noc::ChannelId c : *path) {
          if (uses_channel(b, c)) return true;
        }
      }
    }
  }
  return false;
}

TEST(ValidateGolden, OversubscribedSameInstantHandoffs) {
  // Every leg at 0.6 of a channel: a handoff (one session ends on a
  // channel at the instant the next starts) stays at 0.6, while any
  // real overlap on a channel reaches 1.2.  An emptied session books
  // no load at all.
  const SystemModel sys = d695(2);
  Schedule plan = half_budget_plan(sys);
  ASSERT_TRUE(has_same_instant_handoff(plan));
  for (Session& s : plan.sessions) {
    s.bandwidth_in = 0.6;
    s.bandwidth_out = 0.6;
  }
  plan.sessions[3].end = plan.sessions[3].start;
  expect_violations(validate(sys, plan), {
      "module 4: empty session [15149, 15149)",
      "channel 18 oversubscribed: peak bandwidth 1.2",
      "channel 32 oversubscribed: peak bandwidth 1.2",
      "module 11: recorded channel bandwidth != cost model",
      "module 5: recorded channel bandwidth != cost model",
      "module 12: recorded channel bandwidth != cost model",
      "module 10: recorded channel bandwidth != cost model",
      "module 6: recorded channel bandwidth != cost model",
      "module 7: recorded channel bandwidth != cost model",
      "module 9: recorded channel bandwidth != cost model",
      "module 2: recorded channel bandwidth != cost model",
      "module 8: recorded channel bandwidth != cost model",
      "module 1: recorded channel bandwidth != cost model",
      "module 3: recorded channel bandwidth != cost model",
  });
}

TEST(ValidateGolden, RecordedChannelIdsOutsideTheMesh) {
  // Two overlapping sessions both record a negative channel id and one
  // past the mesh: their loads still add up, and the oversubscription
  // lines come out in ascending channel order around the mesh's own.
  const SystemModel sys = d695(2);
  Schedule plan = half_budget_plan(sys);
  const noc::ChannelId past = sys.mesh().channel_count() + 7;
  Session& a = plan.sessions[0];
  Session& b = plan.sessions[1];
  for (Session* s : {&a, &b}) {
    s->path_in.insert(s->path_in.begin(), -5);
    s->path_out.push_back(past);
    s->bandwidth_in = 0.7;
    s->bandwidth_out = 0.7;
  }
  b.start = a.start;
  b.end = a.start + b.duration();
  expect_violations(validate(sys, plan), {
      "resource ATE-in double-booked around [0, 51351) by module 5",
      "resource ATE-out double-booked around [0, 51351) by module 5",
      "module 11: recorded stimulus path is not the XY route or its fault-aware detour",
      "module 11: recorded response path is not the XY route or its fault-aware detour",
      "module 5: recorded stimulus path is not the XY route or its fault-aware detour",
      "module 5: recorded response path is not the XY route or its fault-aware detour",
      "channel -5 oversubscribed: peak bandwidth 1.4",
      "channel 0 oversubscribed: peak bandwidth 1.4",
      "channel 4 oversubscribed: peak bandwidth 1.4",
      "channel 26 oversubscribed: peak bandwidth 1.4",
      "channel 40 oversubscribed: peak bandwidth 1.4",
      "channel 55 oversubscribed: peak bandwidth 1.4",
      "module 11: recorded channel bandwidth != cost model",
      "module 5: recorded duration 51351 != cost model 48130",
      "module 5: recorded channel bandwidth != cost model",
  });
}

TEST(ValidateGolden, ZeroBandwidthLegs) {
  const SystemModel sys = d695(2);
  Schedule plan = half_budget_plan(sys);
  for (std::size_t i = 0; i < plan.sessions.size(); i += 2) {
    plan.sessions[i].bandwidth_in = 0.0;
    plan.sessions[i + 1 < plan.sessions.size() ? i + 1 : i].bandwidth_out = 0.0;
  }
  expect_violations(validate(sys, plan), {
      "module 11: recorded channel bandwidth != cost model",
      "module 5: recorded channel bandwidth != cost model",
      "module 12: recorded channel bandwidth != cost model",
      "module 4: recorded channel bandwidth != cost model",
      "module 10: recorded channel bandwidth != cost model",
      "module 6: recorded channel bandwidth != cost model",
      "module 7: recorded channel bandwidth != cost model",
      "module 9: recorded channel bandwidth != cost model",
      "module 2: recorded channel bandwidth != cost model",
      "module 8: recorded channel bandwidth != cost model",
      "module 1: recorded channel bandwidth != cost model",
      "module 3: recorded channel bandwidth != cost model",
  });
}

TEST(ValidateGolden, OutOfRangeResourceIndices) {
  const SystemModel sys = d695(2);
  Schedule plan = half_budget_plan(sys);
  plan.sessions[0].source_resource = 99;
  plan.sessions[1].sink_resource = -1;
  plan.sessions[2].power += 3.0;
  expect_violations(validate(sys, plan), {
      "module 11: resource index out of range",
      "module 5: resource index out of range",
      "module 12: recorded power 1603 != cost model 1600",
  });
}

TEST(ValidateGolden, CircuitChannelModel) {
  // Circuit model: every session of the plan restarted at instant 0
  // collides on shared channels and resources.
  const SystemModel sys = d695(2, core::ChannelModel::kCircuit);
  Schedule plan = core::plan_tests(sys, power::PowerBudget::unconstrained());
  for (std::size_t i = 0; i < 4 && i < plan.sessions.size(); ++i) {
    Session& s = plan.sessions[i];
    const std::uint64_t d = s.duration();
    s.start = 0;
    s.end = d;
  }
  expect_violations(validate(sys, plan), {
      "resource ATE-in double-booked around [0, 48130) by module 5",
      "resource ATE-out double-booked around [0, 48130) by module 5",
      "module 12 starts at 0 on processor 11 which is only ready at 3221",
      "module 12 starts at 0 on processor 11 which is only ready at 3221",
      "module 7 starts at 0 on processor 11 which is only ready at 3221",
      "module 7 starts at 0 on processor 11 which is only ready at 3221",
      "resource leon#11 double-booked around [0, 60703) by module 7",
      "channel 0 double-booked around [0, 48130) by module 5",
      "channel 4 double-booked around [0, 48130) by module 5",
      "channel 26 double-booked around [0, 48130) by module 5",
      "channel 40 double-booked around [0, 48130) by module 5",
      "recorded peak power 4377 != recomputed 4980",
  });
}

TEST(ValidateGolden, DegradedEpochWithPretestedProcessors) {
  // A later timeline epoch: both processors passed their own test
  // earlier, a link is cut, and the epoch plans the remaining cores.
  // Validated with and without the pretested set, then corrupted.
  const SystemModel sys = d695(2);
  const power::PowerBudget budget = power::PowerBudget::fraction_of_total(sys.soc(), 0.5);
  noc::FaultSet faults;
  faults.fail_channel(sys.mesh().channel_count() / 2);
  std::vector<bool> candidates(sys.soc().modules.size(), true);
  const std::vector<int> pretested = sys.soc().processor_ids();
  for (const int p : pretested) candidates[static_cast<std::size_t>(p - 1)] = false;
  Schedule plan = search::replan_subset(sys, budget, faults, search::SearchOptions{},
                                        core::PairTable(sys, faults), 0, candidates, pretested)
                      .schedule;
  expect_violations(validate(sys, plan, faults, pretested), {});
  expect_violations(validate(sys, plan, faults), {
      "module 4 uses untested processor 11",
      "module 4 uses untested processor 11",
      "module 10 uses untested processor 12",
      "module 10 uses untested processor 12",
      "module 7 uses untested processor 11",
      "module 7 uses untested processor 11",
      "module 9 uses untested processor 11",
      "module 9 uses untested processor 11",
      "module 8 uses untested processor 12",
      "module 8 uses untested processor 12",
      "module 3 uses untested processor 11",
      "module 3 uses untested processor 11",
  });

  for (Session& s : plan.sessions) {
    if (s.path_in.size() > 1) {
      s.path_in.pop_back();
      break;
    }
  }
  plan.sessions.back().bandwidth_out = 1.5;
  plan.sessions.front().end += 3;
  expect_violations(validate(sys, plan, faults, pretested), {
      "module 4: recorded stimulus path is not the XY route or its fault-aware detour",
      "channel 10 oversubscribed: peak bandwidth 1.5",
      "module 4: recorded duration 26245 != cost model 26242",
      "module 3: recorded channel bandwidth != cost model",
  });
}

}  // namespace
}  // namespace nocsched::sim
