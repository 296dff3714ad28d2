#pragma once
// Test oracle: the reference greedy planner, an implementation of the
// paper's commit rules that is independent of core's PlannerState
// kernel.  Property suites plan the same inputs through both and demand
// bit-identical Schedules (sessions, makespan, peak power) and
// byte-identical error texts.
//
// The entry points take the same arguments and perform the same input
// checks as their core::plan_tests* namesakes.

#include <span>
#include <vector>

#include "core/pair_table.hpp"
#include "core/schedule.hpp"
#include "core/scheduler.hpp"
#include "core/system_model.hpp"
#include "power/budget.hpp"

namespace nocsched::core::oracle {

/// core::plan_tests through the reference planner.
[[nodiscard]] Schedule plan_tests(const SystemModel& sys, const power::PowerBudget& budget);

/// core::plan_tests_with_order through the reference planner.
[[nodiscard]] Schedule plan_tests_with_order(const SystemModel& sys,
                                             const power::PowerBudget& budget,
                                             const std::vector<int>& order,
                                             const PairTable& pairs);

/// core::plan_tests_subset through the reference planner.
[[nodiscard]] Schedule plan_tests_subset(const SystemModel& sys,
                                         const power::PowerBudget& budget,
                                         const std::vector<int>& order, const PairTable& pairs,
                                         std::span<const int> pretested = {});

}  // namespace nocsched::core::oracle
