// The planning kernel against the reference-planner oracle
// (tests/support): every core::plan_tests* call must return the
// oracle's Schedule bit for bit — sessions, makespan, peak power — or
// throw the oracle's error text byte for byte, and core::plan_makespan
// must return the oracle's makespan.  Swept over the builtin paper
// systems and hundreds of random systems, every ResourceChoice x
// ChannelModel x PairOrder, with and without cross pairing, loose and
// tight power budgets, and full, shuffled, and subset-with-pretested
// orders.  The kernel runs on a per-thread workspace reused across
// calls, so the suite also plans different systems back to back (and
// after a throwing plan) on one thread, and concurrently on several, to
// show nothing leaks between reuses.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/pair_table.hpp"
#include "core/scheduler.hpp"
#include "noc/fault.hpp"
#include "obs/metrics.hpp"
#include "support/random_system.hpp"
#include "support/reference_planner.hpp"

namespace nocsched::core {
namespace {

/// What one plan call produced: a schedule, or the text it threw.
struct Outcome {
  std::optional<Schedule> schedule;
  std::string error;
};

Outcome outcome_of(const std::function<Schedule()>& plan) {
  try {
    return {plan(), ""};
  } catch (const std::exception& e) {
    return {std::nullopt, e.what()};
  }
}

/// Kernel and oracle agree exactly.  Returns true when both planned.
bool expect_same(const Outcome& kernel, const Outcome& oracle) {
  EXPECT_EQ(kernel.error, oracle.error);
  EXPECT_EQ(kernel.schedule.has_value(), oracle.schedule.has_value());
  if (!kernel.schedule || !oracle.schedule) return false;
  const Schedule& k = *kernel.schedule;
  const Schedule& o = *oracle.schedule;
  EXPECT_EQ(k.makespan, o.makespan);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(k.peak_power), std::bit_cast<std::uint64_t>(o.peak_power))
      << k.peak_power << " vs " << o.peak_power;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(k.power_limit),
            std::bit_cast<std::uint64_t>(o.power_limit));
  EXPECT_EQ(k.sessions, o.sessions);
  return true;
}

/// plan_makespan agrees with the oracle's plan: its makespan, or its
/// error text.
void expect_same_makespan(const std::function<std::uint64_t()>& makespan,
                          const Outcome& oracle) {
  try {
    const std::uint64_t got = makespan();
    ASSERT_TRUE(oracle.schedule.has_value()) << "oracle threw: " << oracle.error;
    EXPECT_EQ(got, oracle.schedule->makespan);
  } catch (const std::exception& e) {
    EXPECT_EQ(e.what(), oracle.error);
  }
}

using support::params_variant;
using support::random_system;

/// The smallest feasible budget: the largest per-module cheapest
/// session power.  Plans under it run nearly serially and sit right on
/// the power-fit slack.
power::PowerBudget tightest_budget(const SystemModel& sys, const PairTable& pairs) {
  power::PowerBudget budget;
  budget.limit = 0.0;
  for (const itc02::Module& m : sys.soc().modules) {
    budget.limit = std::max(budget.limit, pairs.cheapest_power(m.id));
  }
  return budget;
}

/// A subset order with pretested processors, as a mid-timeline replan
/// plans it: each processor is either pretested (serves from 0, not
/// planned) or planned; some plain cores are already done.
struct SubsetOrder {
  std::vector<int> order;
  std::vector<int> pretested;
};

SubsetOrder random_subset(const SystemModel& sys, Rng& rng) {
  SubsetOrder s;
  for (const itc02::Module& m : sys.soc().modules) {
    if (m.is_processor && rng.chance(0.5)) {
      s.pretested.push_back(m.id);
    } else if (m.is_processor || !rng.chance(0.2)) {
      s.order.push_back(m.id);
    }
  }
  rng.shuffle(s.order);
  return s;
}

/// Plans `sys` every way the suite covers through kernel and oracle;
/// returns how many comparisons planned successfully.
int compare_all_orders(const SystemModel& sys, Rng& rng) {
  const PairTable pairs(sys);
  const power::PowerBudget budgets[] = {
      rng.chance(0.5) ? power::PowerBudget::unconstrained()
                      : power::PowerBudget::fraction_of_total(sys.soc(), 0.8),
      tightest_budget(sys, pairs)};
  std::vector<int> shuffled = priority_order(sys);
  rng.shuffle(shuffled);
  const SubsetOrder subset = random_subset(sys, rng);
  int planned = 0;
  for (const power::PowerBudget& budget : budgets) {
    SCOPED_TRACE(budget.limit);
    if (expect_same(outcome_of([&] { return plan_tests(sys, budget); }),
                    outcome_of([&] { return oracle::plan_tests(sys, budget); }))) {
      ++planned;
    }
    const Outcome full = outcome_of(
        [&] { return oracle::plan_tests_with_order(sys, budget, shuffled, pairs); });
    if (expect_same(
            outcome_of([&] { return plan_tests_with_order(sys, budget, shuffled, pairs); }),
            full)) {
      ++planned;
    }
    expect_same_makespan([&] { return plan_makespan(sys, budget, shuffled, pairs, false); },
                         full);
    const Outcome part = outcome_of([&] {
      return oracle::plan_tests_subset(sys, budget, subset.order, pairs, subset.pretested);
    });
    if (expect_same(outcome_of([&] {
                      return plan_tests_subset(sys, budget, subset.order, pairs,
                                               subset.pretested);
                    }),
                    part)) {
      ++planned;
    }
    expect_same_makespan(
        [&] {
          return plan_makespan(sys, budget, subset.order, pairs, true, subset.pretested);
        },
        part);
  }
  return planned;
}

TEST(KernelOracle, BuiltinSystemsEveryVariant) {
  int planned = 0;
  for (const std::string soc : {"d695", "p22810", "p93791"}) {
    for (const int procs : {0, 4, 8}) {
      for (std::uint64_t v = 0; v < 16; ++v) {
        SCOPED_TRACE(soc + " procs " + std::to_string(procs) + " variant " +
                     std::to_string(v));
        const SystemModel sys = SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon,
                                                          procs, params_variant(v));
        Rng rng = stream_rng(0x0AC1E, v);
        planned += compare_all_orders(sys, rng);
      }
    }
  }
  EXPECT_GE(planned, 3 * 3 * 16 * 5);  // nearly every combination plans
}

TEST(KernelOracle, MoreThan64EndpointsSkipTheMaskScreen) {
  // 64 reused processors + 2 ATE ports: endpoint indices exceed the
  // kernel's 64-bit availability mask, so it must plan unscreened.
  for (std::uint64_t v = 0; v < 8; ++v) {
    SCOPED_TRACE(v);
    const SystemModel sys =
        SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 64, params_variant(v));
    ASSERT_GT(sys.endpoints().size(), 64u);
    Rng rng = stream_rng(0x64E9, v);
    EXPECT_EQ(compare_all_orders(sys, rng), 6);
  }
}

TEST(KernelOracle, RandomSystemsEveryVariant) {
  int planned = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    for (std::uint64_t v = 0; v < 16; ++v) {
      // The same SoC and mesh under every variant: the rng stream is
      // re-seeded per variant before the system is drawn.
      Rng rng = stream_rng(0x5EED0C, seed);
      const SystemModel sys = random_system(rng, params_variant(v));
      SCOPED_TRACE("seed " + std::to_string(seed) + " variant " + std::to_string(v));
      planned += compare_all_orders(sys, rng);
      if (HasFailure()) return;
    }
  }
  EXPECT_GE(planned, 200 * 16 * 5);
}

TEST(KernelOracle, BackToBackPlansOnOneThreadShareNothing) {
  // The per-thread workspace is re-targeted by every call: alternate a
  // small multiplexed system, a large circuit-switched one, a
  // multiplexed earliest-completion one (so the kernel switches between
  // its now-only and whole-timeline envelopes for both power and channel
  // load), and plans that throw, and each plan must still equal a fresh
  // oracle plan.
  const SystemModel small =
      SystemModel::paper_system("d695", itc02::ProcessorKind::kPlasma, 2, params_variant(0));
  const SystemModel large =
      SystemModel::paper_system("p93791", itc02::ProcessorKind::kLeon, 8, params_variant(5));
  const SystemModel windowed =
      SystemModel::paper_system("p22810", itc02::ProcessorKind::kLeon, 4, params_variant(1));
  const power::PowerBudget loose = power::PowerBudget::unconstrained();
  const power::PowerBudget small_half = power::PowerBudget::fraction_of_total(small.soc(), 0.5);
  const power::PowerBudget windowed_half =
      power::PowerBudget::fraction_of_total(windowed.soc(), 0.5);
  power::PowerBudget infeasible;
  infeasible.limit = 1.0;
  const auto same = [](const SystemModel& sys, const power::PowerBudget& budget) {
    expect_same(outcome_of([&] { return plan_tests(sys, budget); }),
                outcome_of([&] { return oracle::plan_tests(sys, budget); }));
  };
  const Schedule first = plan_tests(small, loose);
  for (int round = 0; round < 3; ++round) {
    same(large, loose);
    same(small, infeasible);
    same(small, loose);
    same(windowed, windowed_half);
    same(small, small_half);
    same(windowed, loose);
    same(small, loose);
    EXPECT_EQ(plan_tests(small, loose).sessions, first.sessions);
  }
}

TEST(KernelOracle, ConcurrentPlansMatchTheOracle) {
  // One workspace per thread: plans of different systems racing on a
  // pool must each equal the oracle (TSan checks the sharing).
  std::vector<SystemModel> systems;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    Rng rng = stream_rng(0xC0C0, seed);
    systems.push_back(random_system(rng, params_variant(seed % 8)));
  }
  std::vector<std::optional<Schedule>> kernel(systems.size());
  parallel_for(systems.size() * 4, 4, [&](std::size_t i) {
    const SystemModel& sys = systems[i % systems.size()];
    Schedule s = plan_tests(sys, power::PowerBudget::unconstrained());
    if (i < systems.size()) kernel[i] = std::move(s);
  });
  for (std::size_t i = 0; i < systems.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same(Outcome{kernel[i], ""},
                outcome_of([&] {
                  return oracle::plan_tests(systems[i], power::PowerBudget::unconstrained());
                }));
  }
}

TEST(KernelOracle, ErrorTextsMatch) {
  const SystemModel sys =
      SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 4, params_variant(0));
  const PairTable pairs(sys);
  const power::PowerBudget loose = power::PowerBudget::unconstrained();
  const std::vector<int> full = priority_order(sys);
  int first_proc = 0;
  for (const itc02::Module& m : sys.soc().modules) {
    if (m.is_processor && first_proc == 0) first_proc = m.id;
  }
  ASSERT_NE(first_proc, 0);

  const auto both_with_order = [&](const std::vector<int>& order,
                                   const power::PowerBudget& budget) {
    const Outcome k = outcome_of([&] { return plan_tests_with_order(sys, budget, order, pairs); });
    const Outcome o =
        outcome_of([&] { return oracle::plan_tests_with_order(sys, budget, order, pairs); });
    EXPECT_FALSE(k.error.empty());
    expect_same(k, o);
    expect_same_makespan([&] { return plan_makespan(sys, budget, order, pairs, false); }, o);
  };
  const auto both_subset = [&](const std::vector<int>& order, const std::vector<int>& pretested,
                               const PairTable& table) {
    const Outcome k =
        outcome_of([&] { return plan_tests_subset(sys, loose, order, table, pretested); });
    const Outcome o = outcome_of(
        [&] { return oracle::plan_tests_subset(sys, loose, order, table, pretested); });
    EXPECT_FALSE(k.error.empty());
    expect_same(k, o);
    expect_same_makespan(
        [&] { return plan_makespan(sys, loose, order, table, true, pretested); }, o);
  };

  // Precheck: a budget below some module's cheapest session.
  power::PowerBudget tiny;
  tiny.limit = 1.0;
  both_with_order(full, tiny);
  // Order check: not a permutation.
  both_with_order(std::vector<int>(full.begin() + 1, full.end()), loose);
  // Subset checks.
  both_subset({1, 2, 999}, {}, pairs);
  both_subset({1, 2, 2}, {}, pairs);
  both_subset({2, 3}, {1}, pairs);
  both_subset({2, 3}, {first_proc + 1, first_proc}, pairs);
  both_subset({2, first_proc}, {first_proc}, pairs);

  // Stuck: with the ATE input's router dead no session can source from
  // the tester, so processors that could only be tested through each
  // other never start.  Both planners fail on the same module at the
  // same instant, in both resource-choice modes.
  for (const std::uint64_t v : {0u, 1u}) {
    const SystemModel s =
        SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 4, params_variant(v));
    noc::FaultSet faults;
    faults.fail_router(s.ate_input());
    const PairTable degraded(s, faults);
    std::vector<int> order;
    for (const int id : priority_order(s)) {
      if (degraded.has_pairs(id)) order.push_back(id);
    }
    ASSERT_FALSE(order.empty());
    const Outcome k = outcome_of([&] { return plan_tests_subset(s, loose, order, degraded); });
    const Outcome o =
        outcome_of([&] { return oracle::plan_tests_subset(s, loose, order, degraded); });
    EXPECT_NE(k.error.find(v == 0 ? "planner stuck at t=" : "no feasible interface pair"),
              std::string::npos)
        << k.error;
    expect_same(k, o);
  }
}

TEST(KernelOracle, OrderCheckErrorTextsArePinned) {
  // The order checks take an allocation-free path when the order is
  // fine and diagnose only a bad one; the texts they throw are pinned
  // here for the plan entries and the makespan-only (search) entry.
  const SystemModel sys =
      SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 4, params_variant(0));
  const PairTable pairs(sys);
  const power::PowerBudget loose = power::PowerBudget::unconstrained();
  const std::vector<int> full = priority_order(sys);
  const std::vector<int> procs = sys.soc().processor_ids();
  ASSERT_EQ(procs.size(), 4u);
  const int p = procs[0];
  const int q = procs[1];
  ASSERT_FALSE(sys.soc().module(1).is_processor);

  const auto error_of = [](const std::function<void()>& plan) {
    try {
      plan();
    } catch (const std::exception& e) {
      return std::string(e.what());
    }
    return std::string("(no error)");
  };
  const auto with_order = [&](const std::vector<int>& order) {
    const std::string text = "plan_tests_with_order: order must be a permutation of all module ids";
    EXPECT_EQ(error_of([&] { static_cast<void>(plan_tests_with_order(sys, loose, order, pairs)); }),
              text);
    EXPECT_EQ(error_of([&] { static_cast<void>(plan_makespan(sys, loose, order, pairs, false)); }),
              text);
  };
  const auto subset = [&](const std::vector<int>& order, const std::vector<int>& pretested,
                          const std::string& text) {
    EXPECT_EQ(error_of([&] {
                static_cast<void>(plan_tests_subset(sys, loose, order, pairs, pretested));
              }),
              text);
    EXPECT_EQ(error_of([&] {
                static_cast<void>(plan_makespan(sys, loose, order, pairs, true, pretested));
              }),
              text);
  };

  // plan_tests_with_order: a missing id, a duplicate, an unknown id
  // (past N, and 0), and one id too many.
  with_order(std::vector<int>(full.begin() + 1, full.end()));
  std::vector<int> duplicate = full;
  duplicate.back() = duplicate.front();
  with_order(duplicate);
  std::vector<int> unknown = full;
  unknown.back() = static_cast<int>(full.size()) + 1;
  with_order(unknown);
  unknown.back() = 0;
  with_order(unknown);
  std::vector<int> extra = full;
  extra.push_back(full.front());
  with_order(extra);

  // plan_tests_subset: the smallest offending id in sorted order names
  // the fault, whether it is unknown or repeated.
  subset({1, 2, 999}, {}, "plan_tests_subset: unknown module id 999");
  subset({3, 0, 2}, {}, "plan_tests_subset: unknown module id 0");
  subset({2, -7, 2}, {}, "plan_tests_subset: unknown module id -7");
  subset({1, 2, 2}, {}, "plan_tests_subset: module 2 appears twice in the order");
  subset({5, 3, 5, 3}, {}, "plan_tests_subset: module 3 appears twice in the order");
  subset({2, 999, 2}, {}, "plan_tests_subset: module 2 appears twice in the order");
  // ... and the pretested list: a plain core, an unknown id, a
  // descending or repeated list, and a processor also in the order.
  subset({2, 3}, {1}, "plan_tests_subset: pretested id 1 is not a processor module");
  subset({2, 3}, {999}, "plan_tests_subset: pretested id 999 is not a processor module");
  subset({2, 3}, {0}, "plan_tests_subset: pretested id 0 is not a processor module");
  subset({2, 3}, {q, p},
         cat("plan_tests_subset: pretested ids must be ascending and unique, got ", p));
  subset({2, 3}, {p, p},
         cat("plan_tests_subset: pretested ids must be ascending and unique, got ", p));
  subset({2, p}, {p}, cat("plan_tests_subset: pretested processor ", p,
                          " also appears in the order"));
  subset({2, q}, {p, q}, cat("plan_tests_subset: pretested processor ", q,
                             " also appears in the order"));
}

TEST(KernelOracle, PlannerCountersFlushOncePerPlan) {
  obs::MetricsRegistry& reg = obs::registry();
  reg.set_enabled(true);
  reg.reset();
  std::uint64_t sessions = 0;
  std::uint64_t modules = 0;
  for (const std::string soc : {"d695", "p22810", "p93791"}) {
    const SystemModel sys =
        SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, 4, PlannerParams::paper());
    const std::uint64_t runs_before = reg.snapshot().counter_or("planner.runs");
    const Schedule s = plan_tests(sys, power::PowerBudget::unconstrained());
    EXPECT_EQ(reg.snapshot().counter_or("planner.runs"), runs_before + 1) << soc;
    // A makespan-only plan (a search evaluation) is a planner run too.
    const PairTable pairs(sys);
    EXPECT_EQ(plan_makespan(sys, power::PowerBudget::unconstrained(), priority_order(sys),
                            pairs, false),
              s.makespan);
    EXPECT_EQ(reg.snapshot().counter_or("planner.runs"), runs_before + 2) << soc;
    sessions += 2 * s.sessions.size();
    modules += 2 * sys.soc().modules.size();
  }
  // A plan that throws publishes nothing.
  power::PowerBudget tiny;
  tiny.limit = 1.0;
  const SystemModel d695 =
      SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 4, PlannerParams::paper());
  EXPECT_ANY_THROW(static_cast<void>(plan_tests(d695, tiny)));
  const obs::MetricsSnapshot snap = reg.snapshot();
  reg.reset();
  reg.set_enabled(false);
  EXPECT_EQ(snap.counter_or("planner.runs"), 6u);
  EXPECT_EQ(snap.counter_or("planner.commits"), sessions);
  EXPECT_EQ(snap.counter_or("planner.prechecks"), modules);
  EXPECT_GT(snap.counter_or("planner.probes"), 0u);
  EXPECT_GT(snap.counter_or("planner.time_advances"), 0u);
}

}  // namespace
}  // namespace nocsched::core
