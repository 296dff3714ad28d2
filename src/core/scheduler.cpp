#include "core/scheduler.hpp"

#include <algorithm>
#include <span>

#include "common/error.hpp"
#include "core/delta_planner.hpp"
#include "obs/metrics.hpp"

namespace nocsched::core {

namespace {

/// The one planning entry behind every plan_tests* overload (inputs
/// already checked).  Runs on a per-thread kernel that init()
/// re-targets per call: its buffers keep their capacity, so a warm
/// thread plans without allocating beyond the returned Schedule, and
/// the result stays a pure function of the arguments — init() discards
/// everything the previous plan left behind, even a plan that threw.
Schedule run_planner(const SystemModel& sys, const power::PowerBudget& budget,
                     const std::vector<int>& order, const PairTable& pairs,
                     std::span<const int> pretested) {
  thread_local DeltaPlanner kernel;
  // Checkpoint spacing only matters to replans; plan_full takes none.
  kernel.init(sys, budget, pairs, pretested, /*checkpoint_spacing=*/1);
  kernel.plan_full(order);
  Schedule out = kernel.materialize();

  // Single flush per plan: the kernel's hot loops touch only its plain
  // tallies, so the disabled path costs one branch here.  The Counter&
  // caches are safe because the registry never destroys a metric, only
  // zeroes it on reset().
  obs::MetricsRegistry& reg = obs::registry();
  if (reg.enabled()) {
    static obs::Counter& runs = reg.counter("planner.runs");
    static obs::Counter& probes = reg.counter("planner.probes");
    static obs::Counter& prechecks = reg.counter("planner.prechecks");
    static obs::Counter& commits = reg.counter("planner.commits");
    static obs::Counter& advances = reg.counter("planner.time_advances");
    runs.inc();
    probes.add(kernel.stats().probes);
    prechecks.add(order.size());
    commits.add(out.sessions.size());
    advances.add(kernel.stats().time_advances);
  }
  return out;
}

}  // namespace

namespace {

std::vector<bool> cpu_eligible_impl(const SystemModel& sys, const noc::FaultSet* faults) {
  std::vector<bool> eligible(sys.soc().modules.size(), false);
  for (const itc02::Module& m : sys.soc().modules) {
    for (const Endpoint& ep : sys.endpoints()) {
      if (!ep.is_processor() || ep.processor_module == m.id) continue;
      if (faults != nullptr && faults->processor_failed(ep.processor_module)) continue;
      if (fits_processor_memory(sys, m.id, ep.cpu)) {
        eligible[static_cast<std::size_t>(m.id - 1)] = true;  // ids are 1..N
        break;
      }
    }
  }
  return eligible;
}

}  // namespace

std::vector<bool> cpu_eligible_modules(const SystemModel& sys) {
  return cpu_eligible_impl(sys, nullptr);
}

std::vector<bool> cpu_eligible_modules(const SystemModel& sys, const noc::FaultSet& faults) {
  return cpu_eligible_impl(sys, &faults);
}

std::vector<int> priority_order(const SystemModel& sys, const std::vector<bool>& eligible,
                                const std::vector<bool>& include) {
  ensure(eligible.size() == sys.soc().modules.size() &&
             include.size() == sys.soc().modules.size(),
         "priority_order: bitmap sizes must match the module count");
  std::vector<int> ids;
  ids.reserve(sys.soc().modules.size());
  for (const itc02::Module& m : sys.soc().modules) {
    if (include[static_cast<std::size_t>(m.id - 1)]) ids.push_back(m.id);
  }

  const PlannerParams& p = sys.params();
  auto key_less = [&](int a, int b) {
    const itc02::Module& ma = sys.soc().module(a);
    const itc02::Module& mb = sys.soc().module(b);
    if (p.processors_first && ma.is_processor != mb.is_processor) {
      return ma.is_processor;  // processors first (cheap bootstrap)
    }
    const bool ea = eligible[static_cast<std::size_t>(a - 1)];
    const bool eb = eligible[static_cast<std::size_t>(b - 1)];
    if (ea != eb) return !ea;  // ATE-only cores ahead of flexible ones
    switch (p.priority) {
      case PriorityPolicy::kDistanceFirst: {
        const int da = sys.distance_to_nearest_endpoint(a);
        const int db = sys.distance_to_nearest_endpoint(b);
        if (da != db) return da < db;
        const std::uint64_t ca = sys.base_test_cycles(a);
        const std::uint64_t cb = sys.base_test_cycles(b);
        if (ca != cb) return ca > cb;  // longer first on ties
        break;
      }
      case PriorityPolicy::kLongestTestFirst: {
        const std::uint64_t ca = sys.base_test_cycles(a);
        const std::uint64_t cb = sys.base_test_cycles(b);
        if (ca != cb) return ca > cb;
        break;
      }
      case PriorityPolicy::kShortestTestFirst: {
        const std::uint64_t ca = sys.base_test_cycles(a);
        const std::uint64_t cb = sys.base_test_cycles(b);
        if (ca != cb) return ca < cb;
        break;
      }
    }
    return a < b;
  };
  std::sort(ids.begin(), ids.end(), key_less);
  return ids;
}

std::vector<int> priority_order(const SystemModel& sys) {
  // A core is "flexible" if at least one processor in the system has
  // the memory to test it; inflexible cores can only use the external
  // tester, so they get the ATE first (machine-eligibility list
  // scheduling: the constrained jobs seed the constrained machine).
  // Computed once as a bitmap: the comparator runs O(n log n) times and
  // must not rescan every endpoint (and every wrapper phase) per call.
  return priority_order(sys, cpu_eligible_modules(sys),
                        std::vector<bool>(sys.soc().modules.size(), true));
}

Schedule plan_tests(const SystemModel& sys, const power::PowerBudget& budget) {
  const PairTable pairs(sys);
  return run_planner(sys, budget, priority_order(sys), pairs, {});
}

Schedule plan_tests_with_order(const SystemModel& sys, const power::PowerBudget& budget,
                               const std::vector<int>& order, const PairTable& pairs) {
  // The order must name every module exactly once.
  std::vector<int> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> expected;
  expected.reserve(sys.soc().modules.size());
  for (const itc02::Module& m : sys.soc().modules) expected.push_back(m.id);
  ensure(sorted == expected,
         "plan_tests_with_order: order must be a permutation of all module ids");
  return run_planner(sys, budget, order, pairs, {});
}

Schedule plan_tests_subset(const SystemModel& sys, const power::PowerBudget& budget,
                           const std::vector<int>& order, const PairTable& pairs,
                           std::span<const int> pretested) {
  std::vector<int> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    ensure(sorted[i] >= 1 && static_cast<std::size_t>(sorted[i]) <= sys.soc().modules.size(),
           "plan_tests_subset: unknown module id ", sorted[i]);
    ensure(i == 0 || sorted[i] != sorted[i - 1], "plan_tests_subset: module ", sorted[i],
           " appears twice in the order");
  }
  for (std::size_t i = 0; i < pretested.size(); ++i) {
    const int id = pretested[i];
    ensure(id >= 1 && static_cast<std::size_t>(id) <= sys.soc().modules.size() &&
               sys.soc().module(id).is_processor,
           "plan_tests_subset: pretested id ", id, " is not a processor module");
    ensure(i == 0 || pretested[i - 1] < id, "plan_tests_subset: pretested ids must be "
           "ascending and unique, got ", id);
    ensure(std::find(order.begin(), order.end(), id) == order.end(),
           "plan_tests_subset: pretested processor ", id, " also appears in the order");
  }
  return run_planner(sys, budget, order, pairs, pretested);
}

}  // namespace nocsched::core
