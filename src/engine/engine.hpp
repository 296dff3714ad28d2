#pragma once
// The run pipeline as a reusable component: parse/build (cached) →
// search/plan → validate → optional DES replay, for one PlanRequest or
// a batch of them.
//
// Determinism contract: a PlanResult is a pure function of its
// PlanRequest.  Context artifacts are pure functions of the SystemSpec
// (shared, immutable), per-request search runs single-threaded inside
// the request (batch parallelism comes from running whole requests on
// common/parallel workers), and nothing about cache hits, batch
// composition, or worker count reaches the result bytes — asserted by
// tests/engine/ and bench/serve_fleet.  Cache hit/miss activity is
// visible only through the obs layer (serve.cache.* counters,
// wall.serve.* timers), which is quarantined from byte-stable outputs.
//
// The CLI's one-shot modes are thin adapters over Engine::run; --serve
// drives Engine::run_batch from a JSONL loop (engine/serve.hpp).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "des/trace.hpp"
#include "engine/context_cache.hpp"
#include "engine/request.hpp"
#include "obs/metrics.hpp"
#include "sim/cross_check.hpp"

namespace nocsched::engine {

struct EngineOptions {
  std::size_t cache_capacity = 32;  ///< PlanContexts kept (LRU beyond that)
  unsigned jobs = 0;  ///< batch workers (0 = one per hardware thread)
};

struct PlanResult {
  std::string id;
  bool ok = false;
  std::string error;  ///< set when !ok, "<source>:<line>: " prefixed for serve requests
  /// The context the schedule refers to (system, endpoints, names);
  /// null when !ok.  Shared with the cache — treat as immutable.
  ContextCache::Handle context;
  core::Schedule schedule;
  /// Search record (search.* names), set only when the request searched.
  std::optional<obs::MetricsSnapshot> search_metrics;
  bool faulted = false;              ///< request carried faults (replan semantics)
  std::vector<int> dead_modules;     ///< failed processors (fault requests)
  std::vector<int> untestable_modules;  ///< coverage lost (fault requests)
  std::size_t pairs_rebuilt = 0;     ///< pair lists re-enumerated incrementally
  std::optional<des::SimTrace> trace;             ///< simulate requests
  std::optional<sim::CrossCheckReport> cross_check;  ///< simulate requests
};

class Engine {
 public:
  explicit Engine(const EngineOptions& options = {});

  /// Execute one request.  Failures (bad spec, unreadable file, fault
  /// references that don't resolve) come back as ok == false with the
  /// diagnostic in `error` — never an exception, so one bad request in
  /// a stream cannot take the server down.
  [[nodiscard]] PlanResult run(const PlanRequest& request);

  /// Execute a batch: results[i] answers requests[i].  Cache slots are
  /// reserved serially in request order (deterministic eviction), then
  /// requests run on the parallel work queue; contexts missing from the
  /// cache are built once by whichever worker gets there first.
  [[nodiscard]] std::vector<PlanResult> run_batch(const std::vector<PlanRequest>& requests);

  [[nodiscard]] ContextCache& cache() { return cache_; }

 private:
  [[nodiscard]] PlanResult execute(const PlanRequest& request,
                                   const ContextCache::SlotHandle& slot);

  EngineOptions options_;
  ContextCache cache_;
};

}  // namespace nocsched::engine
