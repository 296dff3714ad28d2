#include "engine/engine.hpp"

#include <exception>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/scheduler.hpp"
#include "des/replay.hpp"
#include "noc/fault.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "power/budget.hpp"
#include "search/driver.hpp"
#include "search/replan.hpp"
#include "sim/validate.hpp"

namespace nocsched::engine {

namespace {

/// `execute()`, timed into wall.serve.request_us while the registry is
/// collecting.
template <typename F>
PlanResult observed(F&& execute) {
  obs::MetricsRegistry& reg = obs::registry();
  if (!reg.enabled()) return execute();
  const double start_ms = obs::now_ms();
  PlanResult res = execute();
  reg.histogram("wall.serve.request_us",
                {100, 300, 1000, 3000, 10000, 30000, 100000, 300000, 1000000})
      .observe(static_cast<std::uint64_t>((obs::now_ms() - start_ms) * 1000.0));
  return res;
}

}  // namespace

Engine::Engine(const EngineOptions& options)
    : options_(options), cache_(options.cache_capacity) {}

PlanResult Engine::execute(const PlanRequest& request, const ContextCache::SlotHandle& slot) {
  PlanResult res;
  res.id = request.id;
  try {
    const ContextCache::Handle ctx = [&] {
      // The span keeps the CLI's pre-engine phase names: "parse" covers
      // everything between argv and a plannable system (near-zero on a
      // cache hit — exactly the amortization the cache exists for).
      const obs::Span span("parse");
      return cache_.context(slot);
    }();
    const core::SystemModel& sys = ctx->system();
    const power::PowerBudget budget = request.budget(sys);
    // Defaults to one search thread per request: batch parallelism runs
    // whole requests on the work queue, and search results are
    // bit-identical at any job count anyway.  The one-shot CLI adapter
    // raises search_jobs (one request, many cores).
    const search::SearchOptions sopts = request.search_options();

    if (!request.faults.empty()) {
      const noc::FaultSet faults = request.faults.resolve(sys, "faults.");
      const obs::Span span("plan");
      search::ReplanResult replanned =
          search::replan(sys, budget, faults, sopts, ctx->pristine_pairs());
      {
        const obs::Span check("validate");
        sim::validate_or_throw(sys, replanned.schedule, faults);
      }
      res.schedule = std::move(replanned.schedule);
      res.faulted = true;
      res.dead_modules = std::move(replanned.dead_modules);
      res.untestable_modules = std::move(replanned.untestable_modules);
      res.pairs_rebuilt = replanned.pairs_rebuilt;
      if (request.searching()) res.search_metrics = std::move(replanned.metrics);
    } else if (request.searching()) {
      const obs::Span span("plan");
      // The cached scaffold *is* the unconstrained-budget context; a
      // power-limited request derives its own from it, sharing the
      // pristine table and copying the budget-independent order data.
      search::SearchResult result =
          budget.is_constrained()
              ? search::search_orders(ctx->scaffold().with_budget(budget), sopts)
              : search::search_orders(ctx->scaffold(), sopts);
      {
        const obs::Span check("validate");
        sim::validate_or_throw(sys, result.best);
      }
      res.schedule = std::move(result.best);
      res.search_metrics = std::move(result.metrics);
    } else {
      const obs::Span span("plan");
      res.schedule = core::plan_tests_with_order(sys, budget, ctx->scaffold().base_order(),
                                                 ctx->pristine_pairs());
      const obs::Span check("validate");
      sim::validate_or_throw(sys, res.schedule);
    }

    if (request.simulate) {
      res.trace = des::replay(sys, res.schedule);
      res.cross_check = [&] {
        const obs::Span span("cross_check");
        return sim::cross_check(sys, res.schedule, *res.trace);
      }();
    }
    res.context = ctx;
    res.ok = true;
  } catch (const std::exception& e) {
    res = PlanResult{};
    res.id = request.id;
    res.error = request.origin.empty() ? e.what() : request.origin + ": " + e.what();
  }
  return res;
}

PlanResult Engine::run(const PlanRequest& request) {
  const ContextCache::SlotHandle slot = cache_.reserve(request.system);
  return observed([&] { return execute(request, slot); });
}

std::vector<PlanResult> Engine::run_batch(const std::vector<PlanRequest>& requests) {
  // Phase 1, serial in request order: reserve every slot.  Recency and
  // eviction become a pure function of the request sequence, no matter
  // how the parallel phase below interleaves.
  std::vector<ContextCache::SlotHandle> slots;
  slots.reserve(requests.size());
  for (const PlanRequest& request : requests) slots.push_back(cache_.reserve(request.system));
  // Phase 2, parallel: whole requests on the work queue.  Missing
  // contexts are built once (under the slot's mutex) by whichever worker
  // arrives first; every result is a pure function of its request.
  std::vector<PlanResult> results(requests.size());
  parallel_for(requests.size(), options_.jobs, [&](std::size_t i) {
    results[i] = observed([&] { return execute(requests[i], slots[i]); });
  });
  return results;
}

}  // namespace nocsched::engine
