#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "sim/validate.hpp"

namespace nocsched::core {
namespace {

SystemModel d695(int procs, PlannerParams params = PlannerParams::paper()) {
  return SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, procs, params);
}

SystemModel p22810(int procs) {
  return SystemModel::paper_system("p22810", itc02::ProcessorKind::kLeon, procs,
                                   PlannerParams::paper());
}

TEST(Scheduler, NoProcBaselineIsSequential) {
  const SystemModel sys = d695(0);
  const Schedule s = plan_tests(sys, power::PowerBudget::unconstrained());
  sim::validate_or_throw(sys, s);
  ASSERT_EQ(s.sessions.size(), 10u);
  // One ATE pair: sessions never overlap.
  for (std::size_t i = 1; i < s.sessions.size(); ++i) {
    EXPECT_GE(s.sessions[i].start, s.sessions[i - 1].end);
  }
  // Back-to-back: no idle gaps with a single station.
  for (std::size_t i = 1; i < s.sessions.size(); ++i) {
    EXPECT_EQ(s.sessions[i].start, s.sessions[i - 1].end);
  }
}

TEST(Scheduler, ReuseBeatsBaselineOnD695) {
  const Schedule base = plan_tests(d695(0), power::PowerBudget::unconstrained());
  const Schedule reuse = plan_tests(d695(4), power::PowerBudget::unconstrained());
  EXPECT_LT(reuse.makespan, base.makespan);
  // The paper's headline regime: double-digit percentage reduction.
  const double reduction =
      1.0 - static_cast<double>(reuse.makespan) / static_cast<double>(base.makespan);
  EXPECT_GT(reduction, 0.10);
}

TEST(Scheduler, SchedulesValidateAcrossConfigs) {
  for (int procs : {0, 2, 6}) {
    const SystemModel sys = d695(procs);
    for (double fraction : {0.5, 1.0}) {
      const Schedule s =
          plan_tests(sys, power::PowerBudget::fraction_of_total(sys.soc(), fraction));
      const sim::ValidationReport report = sim::validate(sys, s);
      EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations[0]);
    }
  }
}

TEST(Scheduler, MakespanIsMaxSessionEnd) {
  const SystemModel sys = d695(4);
  const Schedule s = plan_tests(sys, power::PowerBudget::unconstrained());
  std::uint64_t last = 0;
  for (const Session& session : s.sessions) last = std::max(last, session.end);
  EXPECT_EQ(s.makespan, last);
}

TEST(Scheduler, SessionsSortedByStart) {
  const SystemModel sys = d695(6);
  const Schedule s = plan_tests(sys, power::PowerBudget::unconstrained());
  for (std::size_t i = 1; i < s.sessions.size(); ++i) {
    EXPECT_LE(s.sessions[i - 1].start, s.sessions[i].start);
  }
}

TEST(Scheduler, PowerCapRespectedAndCostsTime) {
  const SystemModel sys = d695(6);
  const Schedule loose = plan_tests(sys, power::PowerBudget::unconstrained());
  const power::PowerBudget tight = power::PowerBudget::fraction_of_total(sys.soc(), 0.35);
  const Schedule capped = plan_tests(sys, tight);
  sim::validate_or_throw(sys, capped);
  EXPECT_LE(capped.peak_power, tight.limit * (1 + 1e-9));
  EXPECT_GE(capped.makespan, loose.makespan);
}

TEST(Scheduler, InfeasibleBudgetThrowsUpfront) {
  const SystemModel sys = d695(2);
  // Even the cheapest session of the biggest core needs its test power.
  EXPECT_THROW(plan_tests(sys, power::PowerBudget{100.0}), Error);
}

TEST(Scheduler, Deterministic) {
  const SystemModel sys = d695(4);
  const Schedule a = plan_tests(sys, power::PowerBudget::unconstrained());
  const Schedule b = plan_tests(sys, power::PowerBudget::unconstrained());
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    EXPECT_EQ(a.sessions[i].module_id, b.sessions[i].module_id);
    EXPECT_EQ(a.sessions[i].start, b.sessions[i].start);
    EXPECT_EQ(a.sessions[i].source_resource, b.sessions[i].source_resource);
  }
}

TEST(Scheduler, ProcessorsAreUsedAfterTheirOwnTest) {
  const SystemModel sys = d695(4);
  const Schedule s = plan_tests(sys, power::PowerBudget::unconstrained());
  // At least one non-processor core must be served by a processor for
  // reuse to mean anything.
  bool any_cpu_session = false;
  for (const Session& session : s.sessions) {
    const Endpoint& src = sys.endpoints()[static_cast<std::size_t>(session.source_resource)];
    if (src.is_processor() && !sys.soc().module(session.module_id).is_processor) {
      any_cpu_session = true;
    }
  }
  EXPECT_TRUE(any_cpu_session);
}

TEST(Scheduler, EarliestCompletionAlsoValidates) {
  PlannerParams params = PlannerParams::paper();
  params.resource_choice = ResourceChoice::kEarliestCompletion;
  const SystemModel sys = d695(4, params);
  for (double fraction : {0.5, 1.0}) {
    const Schedule s =
        plan_tests(sys, power::PowerBudget::fraction_of_total(sys.soc(), fraction));
    const sim::ValidationReport report = sim::validate(sys, s);
    EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations[0]);
  }
}

TEST(Scheduler, CrossPairingModeValidates) {
  PlannerParams params = PlannerParams::paper();
  params.allow_cross_pairing = true;
  const SystemModel sys = d695(4, params);
  const Schedule s = plan_tests(sys, power::PowerBudget::unconstrained());
  sim::validate_or_throw(sys, s);
  // With cross pairing some session should mix interface classes.
  bool mixed = false;
  for (const Session& session : s.sessions) {
    const Endpoint& src = sys.endpoints()[static_cast<std::size_t>(session.source_resource)];
    const Endpoint& snk = sys.endpoints()[static_cast<std::size_t>(session.sink_resource)];
    if (src.is_processor() != snk.is_processor()) mixed = true;
  }
  EXPECT_TRUE(mixed);
}

TEST(Scheduler, CircuitChannelModelValidates) {
  PlannerParams params = PlannerParams::paper();
  params.channel_model = ChannelModel::kCircuit;
  const SystemModel sys = d695(4, params);
  const Schedule s = plan_tests(sys, power::PowerBudget::unconstrained());
  sim::validate_or_throw(sys, s);
}

TEST(PriorityOrder, ProcessorsComeFirstThenAteOnlyCores) {
  const SystemModel sys = d695(2);
  const std::vector<int> order = priority_order(sys);
  ASSERT_EQ(order.size(), 12u);
  EXPECT_TRUE(sys.soc().module(order[0]).is_processor);
  EXPECT_TRUE(sys.soc().module(order[1]).is_processor);
  // Next come the cores no processor can serve (s38584 id 5, s13207 id 6).
  EXPECT_TRUE((order[2] == 5 && order[3] == 6) || (order[2] == 6 && order[3] == 5));
}

TEST(PriorityOrder, LongestFirstWithinTiers) {
  const SystemModel sys = d695(0);
  const std::vector<int> order = priority_order(sys);
  // Everything is ATE-only at 0 processors; pure longest-first.
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(sys.base_test_cycles(order[i - 1]), sys.base_test_cycles(order[i]));
  }
}

TEST(PriorityOrder, PolicyChangesOrdering) {
  PlannerParams shortest = PlannerParams::paper();
  shortest.priority = PriorityPolicy::kShortestTestFirst;
  const SystemModel sys = d695(0, shortest);
  const std::vector<int> order = priority_order(sys);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(sys.base_test_cycles(order[i - 1]), sys.base_test_cycles(order[i]));
  }
}

TEST(PriorityOrder, DistancePolicyOrdersByDistance) {
  PlannerParams params = PlannerParams::paper();
  params.priority = PriorityPolicy::kDistanceFirst;
  params.processors_first = false;
  const SystemModel sys = d695(0, params);
  const std::vector<int> order = priority_order(sys);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(sys.distance_to_nearest_endpoint(order[i - 1]),
              sys.distance_to_nearest_endpoint(order[i]));
  }
}

TEST(PlanWithOrder, MatchesPlanTestsOnDefaultOrder) {
  const SystemModel sys = p22810(4);
  const power::PowerBudget budget = power::PowerBudget::unconstrained();
  const PairTable pairs(sys);
  const Schedule a = plan_tests(sys, budget);
  const Schedule b = plan_tests_with_order(sys, budget, priority_order(sys), pairs);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.sessions.size(), b.sessions.size());
}

TEST(PlanWithOrder, RejectsNonPermutations) {
  const SystemModel sys = p22810(2);
  const power::PowerBudget budget = power::PowerBudget::unconstrained();
  const PairTable pairs(sys);
  std::vector<int> order = priority_order(sys);
  order.pop_back();
  EXPECT_THROW((void)plan_tests_with_order(sys, budget, order, pairs), Error);
  order = priority_order(sys);
  order[0] = order[1];
  EXPECT_THROW((void)plan_tests_with_order(sys, budget, order, pairs), Error);
  order = priority_order(sys);
  order.push_back(999);
  EXPECT_THROW((void)plan_tests_with_order(sys, budget, order, pairs), Error);
}

TEST(PlanWithOrder, DifferentOrdersStillValidate) {
  const SystemModel sys = p22810(4);
  const power::PowerBudget budget = power::PowerBudget::unconstrained();
  std::vector<int> order = priority_order(sys);
  std::reverse(order.begin(), order.end());
  const Schedule s = plan_tests_with_order(sys, budget, order, PairTable(sys));
  const sim::ValidationReport report = sim::validate(sys, s);
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations[0]);
}

}  // namespace
}  // namespace nocsched::core
