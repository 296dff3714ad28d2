// The validator keeps its working storage per thread and reuses it
// from call to call.  These tests show that nothing a call leaves in it
// — a large corrupted plan, a circuit booking, a detour memo, a call
// that threw — reaches a later report: every report equals the one a
// fresh thread produces, and plans validated concurrently report what
// they report serially.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "core/scheduler.hpp"
#include "sim/validate.hpp"

namespace nocsched::sim {
namespace {

using core::PlannerParams;
using core::Schedule;
using core::Session;
using core::SystemModel;

SystemModel paper(const char* soc, int procs,
                  core::ChannelModel model = core::ChannelModel::kMultiplexed) {
  PlannerParams params = PlannerParams::paper();
  params.channel_model = model;
  return SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, procs, params);
}

/// One validation to run: the fault-free form when `faults` is unset.
struct Case {
  const SystemModel* sys = nullptr;
  Schedule plan;
  std::optional<noc::FaultSet> faults;
  std::vector<int> pretested;
};

/// The report of `c`, or the text of what it threw.
std::vector<std::string> outcome(const Case& c) {
  try {
    return c.faults ? validate(*c.sys, c.plan, *c.faults, c.pretested).violations
                    : validate(*c.sys, c.plan).violations;
  } catch (const std::exception& e) {
    return {std::string("threw: ") + e.what()};
  }
}

/// outcome(c) on a thread that has validated nothing before.
std::vector<std::string> fresh_outcome(const Case& c) {
  std::vector<std::string> out;
  std::thread([&] { out = outcome(c); }).join();
  return out;
}

/// Every session restarted at instant 0, extra channel ids (one past
/// the mesh, one negative) on the stimulus legs, an unknown module id,
/// and overloaded legs: every table and lane the validator keeps gets
/// used, well past what a valid plan needs.
Schedule corrupt_heavily(Schedule plan, int mesh_channels) {
  for (std::size_t i = 0; i < plan.sessions.size(); ++i) {
    Session& s = plan.sessions[i];
    const std::uint64_t d = s.duration();
    s.start = 0;
    s.end = d;
    s.bandwidth_in = 0.9;
    if (i % 3 == 0) s.path_in.push_back(mesh_channels + 4);
    if (i % 5 == 0) s.path_in.insert(s.path_in.begin(), -2);
  }
  plan.sessions.back().module_id = 4000;
  return plan;
}

/// A lighter corruption of a different shape: two sessions swapped in
/// time, one path reversed, one power nudged.
Schedule corrupt_lightly(Schedule plan) {
  std::swap(plan.sessions[1].start, plan.sessions[2].start);
  std::swap(plan.sessions[1].end, plan.sessions[2].end);
  for (Session& s : plan.sessions) {
    if (s.path_out.size() > 1) {
      std::reverse(s.path_out.begin(), s.path_out.end());
      break;
    }
  }
  plan.sessions[3].power += 1.0;
  return plan;
}

struct Systems {
  SystemModel p93791 = paper("p93791", 8);
  SystemModel p93791_circuit = paper("p93791", 8, core::ChannelModel::kCircuit);
  SystemModel d695 = paper("d695", 1);
  SystemModel p22810 = paper("p22810", 4);
};

/// The sequence one thread validates: heavy corruptions first (circuit
/// model, then the fault-aware form with a cut link and pretested
/// processors), a plan whose NaN power throws mid-validation, then a
/// valid small plan, that plan without its processor's own test, and a
/// lightly corrupted plan of another system.
std::vector<Case> sequence(const Systems& s) {
  std::vector<Case> cases;
  const power::PowerBudget none = power::PowerBudget::unconstrained();

  Case circuit{&s.p93791_circuit, {}, std::nullopt, {}};
  circuit.plan = corrupt_heavily(core::plan_tests(s.p93791_circuit, none),
                                 s.p93791_circuit.mesh().channel_count());
  cases.push_back(circuit);

  Case faulted{&s.p93791, {}, noc::FaultSet{}, {}};
  faulted.plan = corrupt_heavily(core::plan_tests(s.p93791, none),
                                 s.p93791.mesh().channel_count());
  faulted.faults->fail_channel(s.p93791.mesh().channel_count() / 2);
  faulted.faults->fail_router(1);
  faulted.pretested = s.p93791.soc().processor_ids();
  cases.push_back(faulted);

  Case throws{&s.p93791, core::plan_tests(s.p93791, none), std::nullopt, {}};
  throws.plan.sessions.back().power = std::nan("");
  cases.push_back(throws);

  cases.push_back(Case{&s.d695, core::plan_tests(s.d695, none), std::nullopt, {}});

  // The same plan without the processor's own test, right after the
  // plan that had it.
  Case untested = cases.back();
  const int processor = s.d695.soc().processor_ids().front();
  std::erase_if(untested.plan.sessions,
                [&](const Session& x) { return x.module_id == processor; });
  cases.push_back(untested);

  Case light{&s.p22810, {}, std::nullopt, {}};
  light.plan = corrupt_lightly(
      core::plan_tests(s.p22810, power::PowerBudget::fraction_of_total(s.p22810.soc(), 0.6)));
  cases.push_back(light);
  return cases;
}

TEST(ValidateScratch, ReportsMatchAFreshThreadWhateverCameBefore) {
  const Systems systems;
  const std::vector<Case> cases = sequence(systems);
  // The sequence exercises what it claims to.
  ASSERT_FALSE(outcome(cases[0]).empty());
  ASSERT_FALSE(outcome(cases[1]).empty());
  ASSERT_EQ(outcome(cases[2]).size(), 1u);
  ASSERT_EQ(outcome(cases[2])[0].rfind("threw: ", 0), 0u);
  ASSERT_TRUE(outcome(cases[3]).empty());
  ASSERT_FALSE(outcome(cases[4]).empty());
  ASSERT_FALSE(outcome(cases[5]).empty());

  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(outcome(cases[i]), fresh_outcome(cases[i])) << "case " << i;
  }
  // And in reverse: small plans first, then the large corrupted ones.
  for (std::size_t i = cases.size(); i-- > 0;) {
    EXPECT_EQ(outcome(cases[i]), fresh_outcome(cases[i])) << "case " << i << ", reversed";
  }
}

TEST(ValidateScratch, ConcurrentReportsMatchSerialOnes) {
  const Systems systems;
  const std::vector<Case> base = sequence(systems);
  std::vector<Case> cases;
  for (int round = 0; round < 6; ++round) cases.insert(cases.end(), base.begin(), base.end());
  std::vector<std::vector<std::string>> serial;
  serial.reserve(cases.size());
  for (const Case& c : cases) serial.push_back(outcome(c));
  std::vector<std::vector<std::string>> concurrent(cases.size());
  parallel_for(cases.size(), 4, [&](std::size_t i) { concurrent[i] = outcome(cases[i]); });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(concurrent[i], serial[i]) << "case " << i;
  }
}

}  // namespace
}  // namespace nocsched::sim
