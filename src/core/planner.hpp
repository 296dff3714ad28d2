#pragma once
// The planning kernel: the paper's greedy commit rules over a
// PlannerState.
//
// Every production plan runs here.  core::plan_tests* and
// core::plan_makespan plan once on a per-thread Planner that init()
// re-targets at each call's system, budget, and pair table while
// keeping every buffer's capacity.  plan_full prices an order;
// materialize() turns the plan into a Schedule only when a caller wants
// one (the order search prices every candidate by makespan alone and
// materializes just the winner).
//
// A plan is bit-identical — same commits, same floating-point
// comparisons, same Schedule — to the independent reference planner
// that tests/support keeps as the oracle
// (tests/core/kernel_oracle_test.cpp).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/pair_table.hpp"
#include "core/planner_state.hpp"
#include "core/schedule.hpp"
#include "core/system_model.hpp"
#include "power/budget.hpp"

namespace nocsched::core {

/// Work tallies of the last plan_full, flushed to the obs `planner.*`
/// counters.  Plain counters: one kernel lives on one thread.
struct PlannerStats {
  std::uint64_t probes = 0;         ///< pair feasibility probes
  std::uint64_t time_advances = 0;  ///< first-available passes after the first
};

class Planner {
 public:
  /// (Re-)target the kernel: plan `sys` under `budget` from `table`
  /// from now on.  Every buffer keeps its capacity, so re-targeting a
  /// warm kernel allocates nothing.  `table` (and `sys`) must outlive
  /// the kernel's use; `pretested` follows plan_tests_subset semantics.
  void init(const SystemModel& sys, const power::PowerBudget& budget, const PairTable& table,
            std::span<const int> pretested);

  /// Plan `order` from scratch.  Runs the
  /// feasibility precheck first (every module needs a pair whose power
  /// fits the budget in isolation) and throws on an infeasible module
  /// or a stuck plan.  Orders are not validated here: core::plan_tests*
  /// and core::plan_makespan check them first.
  void plan_full(const std::vector<int>& order);

  /// The last plan_full's makespan.
  [[nodiscard]] std::uint64_t makespan() const { return makespan_; }

  /// The last plan_full's plan as a full Schedule.
  [[nodiscard]] Schedule materialize() const;

  [[nodiscard]] const PlannerStats& stats() const { return stats_; }

 private:
  /// One committed session, in execution order.
  struct CommitRec {
    int module_id = 0;
    std::uint32_t source = 0;
    std::uint32_t sink = 0;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    const SessionPlan* plan = nullptr;  ///< into *table_
  };

  struct Candidate {
    std::size_t source = 0;
    std::size_t sink = 0;
    std::uint64_t start = 0;
    const SessionPlan* plan = nullptr;
  };

  void precheck(const std::vector<int>& order) const;
  [[noreturn]] void diagnose_stuck(int module_id, std::uint64_t t) const;

  void commit(int module_id, const Candidate& c);
  [[nodiscard]] std::optional<Candidate> probe_first_available(int module_id, std::uint64_t t);
  /// True unless no pair of `module_id` has both endpoint bits set in
  /// `mask` — the state-free screen run before a real probe.
  [[nodiscard]] bool module_maybe_startable(int module_id, std::uint64_t mask) const;
  /// The paper's greedy: offer every pending module at each time step.
  void run_first_available();

  [[nodiscard]] std::uint64_t earliest_feasible_start(const PairChoice& pc) const;
  void run_earliest_completion(const std::vector<int>& order);

  const SystemModel* sys_ = nullptr;
  power::PowerBudget budget_;
  const PairTable* table_ = nullptr;
  bool first_available_ = true;
  bool fastest_ = false;
  bool mask_filter_ = false;  ///< endpoint count fits the 64-bit availability mask

  /// Module id -> its own processor endpoint index (npos for plain
  /// cores): the commit-time availability update.
  std::vector<std::size_t> proc_resource_;
  /// Endpoints of the pretested processors, available from instant 0.
  std::vector<std::size_t> pretested_resources_;

  PlannerState work_;
  std::vector<CommitRec> commits_;
  std::uint64_t makespan_ = 0;
  double peak_power_ = 0.0;
  /// Modules not yet committed, in order (first-available scratch).
  std::vector<int> pending_;

  PlannerStats stats_;
};

}  // namespace nocsched::core
