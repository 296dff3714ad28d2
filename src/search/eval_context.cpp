#include "search/eval_context.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "core/scheduler.hpp"

namespace nocsched::search {

EvalContext::EvalContext(const core::SystemModel& sys, const power::PowerBudget& budget)
    : EvalContext(sys, budget, core::PairTable(sys)) {}

EvalContext::EvalContext(const core::SystemModel& sys, const power::PowerBudget& budget,
                         core::PairTable&& table)
    : sys_(sys),
      budget_(budget),
      pairs_(std::move(table)),
      eligible_(core::cpu_eligible_modules(sys)),
      base_order_(core::priority_order(sys)) {
  build_tiers();
}

EvalContext::EvalContext(const core::SystemModel& sys, const power::PowerBudget& budget,
                         core::PairTable&& table, const noc::FaultSet& faults,
                         const std::vector<bool>& candidates, std::vector<int> pretested)
    : sys_(sys),
      budget_(budget),
      pairs_(std::move(table)),
      subset_(true),
      pretested_(std::move(pretested)),
      eligible_(core::cpu_eligible_modules(sys, faults)) {
  ensure(candidates.size() == sys.soc().modules.size(),
         "EvalContext: candidates bitmap has ", candidates.size(), " entries for ",
         sys.soc().modules.size(), " modules");
  // Plannable = still wanted (a candidate) AND servable by the degraded
  // table, where pretested processors count as servers without needing
  // their own (already completed) test in this plan.  The rest (dead
  // processors, unroutable or power-infeasible cores, and the cores
  // stranded transitively when their only serving processor lost its
  // own test) are the replan's reported losses.
  std::vector<bool> include = pairs_.testable_modules(sys, budget.limit, pretested_);
  for (std::size_t i = 0; i < include.size(); ++i) {
    if (!candidates[i]) include[i] = false;
  }
  base_order_ = core::priority_order(sys, eligible_, include);
  build_tiers();
}

void EvalContext::build_tiers() {
  // Partition the base order into shuffle tiers: 0 = processor
  // self-tests (only when the bootstrap runs them first), 1 = ATE-only
  // cores, 2 = flexible cores.  priority_order sorts by exactly this
  // partition before any policy key, so the base order is the tiers
  // concatenated and each tier is one contiguous position segment.
  tiers_.resize(3);
  for (int id : base_order_) {
    const std::size_t tier =
        (sys_.soc().module(id).is_processor && sys_.params().processors_first) ? 0
        : eligible_[static_cast<std::size_t>(id - 1)]                          ? 2
                                                                               : 1;
    tiers_[tier].push_back(id);
  }

  segment_index_.resize(base_order_.size());
  std::size_t pos = 0;
  for (const std::vector<int>& tier : tiers_) {
    if (tier.empty()) continue;
    const Segment seg{pos, pos + tier.size()};
    for (std::size_t p = seg.begin; p < seg.end; ++p) {
      segment_index_[p] = segments_.size();
      if (seg.size() >= 2) swappable_positions_.push_back(p);
    }
    for (std::size_t i = seg.begin; i < seg.end; ++i) {
      for (std::size_t j = i + 1; j < seg.end; ++j) swap_pairs_.emplace_back(i, j);
    }
    segments_.push_back(seg);
    pos = seg.end;
  }
}

std::uint64_t EvalContext::evaluate(const std::vector<int>& order) const {
  return core::plan_makespan(sys_, budget_, order, pairs_, subset_, pretested_);
}

core::Schedule EvalContext::plan(const std::vector<int>& order) const {
  return subset_ ? core::plan_tests_subset(sys_, budget_, order, pairs_, pretested_)
                 : core::plan_tests_with_order(sys_, budget_, order, pairs_);
}

std::vector<int> EvalContext::projected_order(const std::vector<int>& preferred) const {
  // Rank of each module in the preferred order; modules absent from it
  // rank after every present one, breaking ties by base-order position
  // (tiers_ already lists each tier in base order, and the sort below
  // is stable, so absent modules keep their base relative order).
  std::vector<std::size_t> rank(sys_.soc().modules.size(), preferred.size());
  for (std::size_t i = 0; i < preferred.size(); ++i) {
    const int id = preferred[i];
    ensure(id >= 1 && static_cast<std::size_t>(id) <= rank.size(),
           "projected_order: unknown module id ", id);
    const std::size_t slot = static_cast<std::size_t>(id - 1);
    if (rank[slot] == preferred.size()) rank[slot] = i;  // first occurrence wins
  }
  std::vector<int> order;
  order.reserve(base_order_.size());
  for (const std::vector<int>& tier : tiers_) {
    std::vector<int> projected = tier;
    std::stable_sort(projected.begin(), projected.end(), [&](int a, int b) {
      return rank[static_cast<std::size_t>(a - 1)] < rank[static_cast<std::size_t>(b - 1)];
    });
    order.insert(order.end(), projected.begin(), projected.end());
  }
  return order;
}

std::vector<int> EvalContext::shuffled_order(Rng& rng) const {
  std::vector<int> order;
  order.reserve(base_order_.size());
  for (const std::vector<int>& tier : tiers_) {
    std::vector<int> shuffled = tier;
    rng.shuffle(shuffled);
    order.insert(order.end(), shuffled.begin(), shuffled.end());
  }
  return order;
}

}  // namespace nocsched::search
