#pragma once
// The planning kernel: the paper's greedy commit rules over a
// PlannerState, plus checkpointed suffix re-pricing.
//
// Every production plan runs here.  core::plan_tests* plan once on a
// per-thread DeltaPlanner that init() re-targets at each call's system,
// budget, and pair table while keeping every buffer's capacity
// (plan_full + materialize).  The search chains keep one DeltaPlanner
// each and re-price perturbed orders against an incumbent.
//
// Re-pricing: the search strategies mutate an order locally (a
// within-tier swap, a shuffle).  DeltaPlanner keeps the *trace* of the
// incumbent order's plan — every commit in execution order, the
// time-advance passes, and PlannerState checkpoints at C-commit
// boundaries — and re-prices a perturbed order from the first point
// where its execution can diverge from the incumbent's.  Checkpoints
// are created lazily, while replaying the shared prefix of a replan
// (never while planning a candidate live), and their buffers are pooled
// across replans.
//
// For ResourceChoice::kEarliestCompletion the planner commits orders
// positionally, so the divergence point is simply the first changed
// position.  For the paper's kFirstAvailable greedy, execution is
// event-driven (every pending module is offered at every time step), so
// the kernel walks the incumbent trace pass by pass: commits at
// unchanged positions are reused verbatim; a changed position is
// screened against the pass's endpoint-availability bitmask (a module
// none of whose (source, sink) pairs is available cannot start — the
// exact cheap reject a probe performs first) and only filter-passing
// probes materialize state; the first real difference (a reused commit
// displaced by a changed position, or a changed position that actually
// starts) switches to live planning mid-pass.
//
// A re-priced plan is bit-identical to plan_full of the same order —
// same commits, same floating-point comparisons, same Schedule — and
// both are bit-identical to the independent reference planner that
// tests/support keeps as the oracle (tests/core/kernel_oracle_test.cpp,
// tests/search/delta_eval_property_test.cpp).  evaluate() prices a
// candidate without disturbing the incumbent; adopt() promotes the last
// candidate (accepted move) so later moves diff against it.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/pair_table.hpp"
#include "core/planner_state.hpp"
#include "core/schedule.hpp"
#include "core/system_model.hpp"
#include "power/budget.hpp"

namespace nocsched::core {

/// Work tallies of one DeltaPlanner, for obs `delta.*` metrics and the
/// delta_eval bench.  Plain counters: one planner lives on one thread.
struct DeltaStats {
  std::uint64_t full_plans = 0;      ///< plan_full calls
  std::uint64_t replans = 0;         ///< evaluate/replan_suffix with a real diff
  std::uint64_t noop_replans = 0;    ///< evaluate of an order identical to the base
  std::uint64_t adoptions = 0;       ///< adopt() calls that promoted a candidate
  std::uint64_t reused_commits = 0;  ///< incumbent commits reused without re-pricing
  std::uint64_t replayed_commits = 0;  ///< commits replayed checkpoint -> divergence
  std::uint64_t repriced_commits = 0;  ///< commits actually re-priced live
  std::uint64_t probes = 0;            ///< pair feasibility probes on the live path
  std::uint64_t time_advances = 0;     ///< first-available passes after the first (live)
  /// Re-priced commits of each replan, in call order (suffix-length
  /// histogram input; bounded by the evaluation budget).
  std::vector<std::uint32_t> suffix_lengths;
};

class DeltaPlanner {
 public:
  /// An untargeted kernel: init() it before planning.
  DeltaPlanner() = default;

  /// A kernel targeted by init(sys, budget, table, pretested,
  /// checkpoint_spacing).
  DeltaPlanner(const SystemModel& sys, const power::PowerBudget& budget,
               const PairTable& table, std::span<const int> pretested,
               std::uint32_t checkpoint_spacing);

  // Checkpoint buffers are shared between traces by reference count, so
  // a copy would alias them; kernels move, never copy.
  DeltaPlanner(const DeltaPlanner&) = delete;
  DeltaPlanner& operator=(const DeltaPlanner&) = delete;
  DeltaPlanner(DeltaPlanner&&) = default;
  DeltaPlanner& operator=(DeltaPlanner&&) = default;

  /// (Re-)target the kernel: forget any incumbent, zero the stats, and
  /// plan `sys` under `budget` from `table` from now on.  Every buffer
  /// keeps its capacity, so re-targeting a warm kernel allocates
  /// nothing.  `table` (and `sys`) must outlive the kernel's use;
  /// `pretested` follows plan_tests_subset semantics.
  /// `checkpoint_spacing` is C, the number of commits between
  /// PlannerState snapshots (>= 1; only replans take snapshots).
  void init(const SystemModel& sys, const power::PowerBudget& budget, const PairTable& table,
            std::span<const int> pretested, std::uint32_t checkpoint_spacing);

  /// Plan `order` from scratch, record it as the incumbent base, and
  /// return its makespan.  Runs the feasibility precheck first (every
  /// module needs a pair whose power fits the budget in isolation) and
  /// throws on an infeasible module or a stuck plan.  Orders are not
  /// validated here: core::plan_tests* check them, and search callers
  /// pass orders already shaped like EvalContext's (a permutation, or a
  /// valid subset with `pretested`).
  std::uint64_t plan_full(const std::vector<int>& order);

  /// Price `order` (same positions as the base order) by reusing the
  /// base plan's prefix and re-pricing only from the first possible
  /// divergence.  Returns the makespan; the base is left untouched and
  /// the result is kept as the candidate for adopt().
  std::uint64_t evaluate(const std::vector<int>& order);

  /// As evaluate(), for callers that already know the first changed
  /// position (positions before `first_changed_pos` must be unchanged).
  std::uint64_t replan_suffix(const std::vector<int>& order, std::size_t first_changed_pos);

  /// Promote the last evaluate() candidate to the incumbent base (call
  /// on an accepted move).  No-op when the last evaluate was a no-op
  /// diff or a candidate was never priced.
  void adopt();

  [[nodiscard]] bool has_base() const { return has_base_; }
  [[nodiscard]] const std::vector<int>& base_order() const { return base_.order; }
  [[nodiscard]] std::uint64_t base_makespan() const { return base_.makespan; }

  /// The incumbent base plan as a full Schedule.
  [[nodiscard]] Schedule materialize() const;

  [[nodiscard]] const DeltaStats& stats() const { return stats_; }

 private:
  /// One committed session of a traced plan, in execution order.
  struct CommitRec {
    std::uint32_t slot = 0;  ///< order position
    int module_id = 0;
    std::uint32_t source = 0;
    std::uint32_t sink = 0;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    const SessionPlan* plan = nullptr;  ///< into *table_
  };

  /// One first-available pass (time step) of a traced plan.
  struct PassRec {
    std::uint64_t t = 0;
    std::uint32_t first_commit = 0;  ///< index into commits at pass start
    std::uint64_t avail_mask = 0;    ///< endpoints available at pass start
  };

  struct Trace {
    std::vector<int> order;
    std::vector<CommitRec> commits;
    std::vector<PassRec> passes;  ///< kFirstAvailable only
    std::vector<std::shared_ptr<const PlannerState>> checkpoints;
    std::vector<std::uint32_t> checkpoint_commits;  ///< commit count per checkpoint
    std::uint64_t makespan = 0;
    double peak_power = 0.0;
    void clear();
  };

  struct Candidate {
    std::size_t source = 0;
    std::size_t sink = 0;
    std::uint64_t start = 0;
    const SessionPlan* plan = nullptr;
  };

  void precheck(const std::vector<int>& order) const;
  [[noreturn]] void diagnose_stuck(int module_id, std::uint64_t t) const;

  /// Restore work_ to the candidate state after `commit_count` commits
  /// (nearest checkpoint + replay); prefix commits live in cand_.
  void materialize_work(std::size_t commit_count);
  void apply_commit(const CommitRec& rec);
  void commit_live(std::uint32_t slot, int module_id, const Candidate& c);
  /// A snapshot of work_, served from pool_ when a buffer is free.
  [[nodiscard]] std::shared_ptr<const PlannerState> snapshot_work();
  /// Return `trace`'s no-longer-shared checkpoint buffers to pool_ and
  /// clear the trace (the shared prefix and initial_ stay alive).
  void recycle(Trace& trace);
  [[nodiscard]] std::optional<Candidate> probe_first_available(int module_id, std::uint64_t t);
  /// True unless no pair of `module_id` has both endpoint bits set in
  /// `mask` — the state-free screen run before a real probe.
  [[nodiscard]] bool module_maybe_startable(int module_id, std::uint64_t mask) const;
  /// Live first-available planning over live_pending_ starting at pass
  /// time `t`; `resume_slot` skips pending positions already offered in
  /// the (resumed) current pass.
  void run_first_available_live(std::uint64_t t, std::uint32_t resume_slot);

  [[nodiscard]] std::uint64_t earliest_feasible_start(const PairChoice& pc) const;
  void run_earliest_completion_live(std::size_t first_slot);

  std::uint64_t replan_first_available();
  std::uint64_t replan_earliest_completion();
  std::uint64_t finish_candidate();

  const SystemModel* sys_ = nullptr;
  power::PowerBudget budget_;
  const PairTable* table_ = nullptr;
  std::uint32_t spacing_ = 1;
  bool first_available_ = true;
  bool fastest_ = false;
  bool mask_filter_ = false;  ///< endpoint count fits the 64-bit availability mask

  /// Module id -> its own processor endpoint index (npos for plain
  /// cores): the commit-time availability update.
  std::vector<std::size_t> proc_resource_;

  /// The state before any commit (pretested processors available from
  /// 0); checkpoint 0 of every trace.  Rebuilt in place by init().
  std::shared_ptr<PlannerState> initial_;
  /// Retired checkpoint buffers, reused by snapshot_work so a snapshot
  /// is a capacity-reusing copy-assign instead of a fresh allocation.
  std::vector<std::shared_ptr<PlannerState>> pool_;
  Trace base_;
  Trace cand_;
  bool has_base_ = false;
  bool cand_valid_ = false;
  bool work_materialized_ = false;
  PlannerState work_;

  // Per-replan scratch, persistent for allocation reuse.
  std::vector<std::uint32_t> changed_;
  std::vector<std::uint32_t> live_pending_;
  std::vector<char> slot_committed_;

  DeltaStats stats_;
};

}  // namespace nocsched::core
