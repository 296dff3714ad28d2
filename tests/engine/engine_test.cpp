// The engine determinism contract: a PlanResult is a pure function of
// its PlanRequest.  Request order, batch composition, worker count,
// cache capacity, and cache temperature (cold build vs hit) must never
// reach the result bytes — pinned here by comparing result_json, the
// exact wire form the serve loop emits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "engine/context_cache.hpp"
#include "engine/engine.hpp"
#include "engine/serve.hpp"
#include "itc02/builtin.hpp"
#include "itc02/writer.hpp"
#include "noc/fault.hpp"
#include "power/budget.hpp"
#include "search/driver.hpp"
#include "search/replan.hpp"

namespace {

using namespace nocsched;

engine::PlanRequest request(std::string id, std::string soc, int procs) {
  engine::PlanRequest req;
  req.id = std::move(id);
  req.system.soc = std::move(soc);
  req.system.procs = procs;
  return req;
}

/// A searching request under a power limit: the engine derives its
/// context from the cached unconstrained scaffold.
engine::PlanRequest power_limited_search() {
  engine::PlanRequest req = request("search-power", "d695", 4);
  req.strategy = search::StrategyKind::kAnneal;
  req.iters = 32;
  req.power_pct = 60.0;
  return req;
}

/// A small heterogeneous fleet touching every execution path: greedy,
/// power-limited, searching (unconstrained and power-limited), faulted,
/// simulated, plus a deterministic
/// in-band failure (power budget below the largest core).
std::vector<engine::PlanRequest> mixed_fleet() {
  std::vector<engine::PlanRequest> fleet;
  fleet.push_back(request("greedy-d695", "d695", 2));
  fleet.push_back(request("greedy-rand", "rand:7", 0));
  {
    engine::PlanRequest req = request("power", "d695", 2);
    req.power_pct = 60.0;
    fleet.push_back(std::move(req));
  }
  {
    engine::PlanRequest req = request("search", "d695", 4);
    req.strategy = search::StrategyKind::kRestart;
    req.iters = 8;
    fleet.push_back(std::move(req));
  }
  fleet.push_back(power_limited_search());
  {
    engine::PlanRequest req = request("faulted", "d695", 4);
    req.faults.procs = {11};
    fleet.push_back(std::move(req));
  }
  {
    engine::PlanRequest req = request("simulated", "rand:7", 2);
    req.simulate = true;
    fleet.push_back(std::move(req));
  }
  {
    engine::PlanRequest req = request("infeasible", "d695", 2);
    req.power_pct = 0.0001;  // below any single core: deterministic in-band error
    fleet.push_back(std::move(req));
  }
  return fleet;
}

/// The reference bytes: each request on its own fresh single-worker,
/// capacity-1 engine — no shared state to leak through.
std::vector<std::string> fresh_engine_reference(const std::vector<engine::PlanRequest>& fleet) {
  std::vector<std::string> ref;
  ref.reserve(fleet.size());
  for (const engine::PlanRequest& req : fleet) {
    engine::Engine eng(engine::EngineOptions{/*cache_capacity=*/1, /*jobs=*/1});
    ref.push_back(engine::result_json(eng.run(req)));
  }
  return ref;
}

TEST(Engine, RunMatchesThePlannerDirectly) {
  engine::Engine eng;
  const engine::PlanResult res = eng.run(request("r", "d695", 2));
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_NE(res.context, nullptr);
  const core::Schedule direct =
      core::plan_tests(res.context->system(), power::PowerBudget::unconstrained());
  EXPECT_EQ(res.schedule.makespan, direct.makespan);
  EXPECT_EQ(res.schedule.sessions.size(), direct.sessions.size());
  EXPECT_DOUBLE_EQ(res.schedule.peak_power, direct.peak_power);
}

TEST(Engine, BatchBytesAreIndependentOfOrderJobsAndComposition) {
  const std::vector<engine::PlanRequest> fleet = mixed_fleet();
  const std::vector<std::string> ref = fresh_engine_reference(fleet);

  // In-order batches at every interesting worker count.
  for (const unsigned jobs : {1u, 2u, 8u}) {
    engine::Engine eng(engine::EngineOptions{/*cache_capacity=*/32, jobs});
    const std::vector<engine::PlanResult> got = eng.run_batch(fleet);
    ASSERT_EQ(got.size(), fleet.size());
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      EXPECT_EQ(engine::result_json(got[i]), ref[i]) << fleet[i].id << " at jobs " << jobs;
    }
  }

  // Reversed order: results still answer their own request.
  {
    std::vector<engine::PlanRequest> reversed(fleet.rbegin(), fleet.rend());
    engine::Engine eng(engine::EngineOptions{/*cache_capacity=*/32, /*jobs=*/8});
    const std::vector<engine::PlanResult> got = eng.run_batch(reversed);
    ASSERT_EQ(got.size(), fleet.size());
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      EXPECT_EQ(engine::result_json(got[i]), ref[fleet.size() - 1 - i])
          << reversed[i].id << " reversed";
    }
  }

  // Split across two batches on one engine (warm second batch), and
  // interleaved with repeats: composition must not matter.
  {
    engine::Engine eng(engine::EngineOptions{/*cache_capacity=*/32, /*jobs=*/2});
    const std::vector<engine::PlanRequest> first(fleet.begin(), fleet.begin() + 3);
    const std::vector<engine::PlanRequest> second(fleet.begin() + 3, fleet.end());
    const std::vector<engine::PlanResult> a = eng.run_batch(first);
    const std::vector<engine::PlanResult> b = eng.run_batch(second);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(engine::result_json(a[i]), ref[i]) << fleet[i].id << " split batch";
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(engine::result_json(b[i]), ref[3 + i]) << fleet[3 + i].id << " split batch";
    }
  }

  // Capacity 1: every distinct spec evicts the last — results unchanged.
  {
    engine::Engine eng(engine::EngineOptions{/*cache_capacity=*/1, /*jobs=*/1});
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      EXPECT_EQ(engine::result_json(eng.run(fleet[i])), ref[i])
          << fleet[i].id << " at capacity 1";
    }
  }
}

TEST(Engine, CacheHitIsByteEqualToTheColdBuild) {
  engine::Engine eng;
  const engine::PlanRequest req = request("twice", "d695", 4);
  const std::string cold = engine::result_json(eng.run(req));
  const engine::ContextCache::Stats after_cold = eng.cache().stats();
  EXPECT_EQ(after_cold.misses, 1u);
  EXPECT_EQ(after_cold.hits, 0u);

  const std::string warm = engine::result_json(eng.run(req));
  const engine::ContextCache::Stats after_warm = eng.cache().stats();
  EXPECT_EQ(after_warm.misses, 1u);
  EXPECT_EQ(after_warm.hits, 1u);
  EXPECT_EQ(cold, warm);
}

TEST(Engine, PowerLimitedSearchMatchesAFromScratchSearch) {
  // The engine prices a power-limited search on a context derived from
  // its cached scaffold (shared pair table, copied base order and
  // tiers); the served bytes must equal a search whose context is
  // built from scratch, cold and warm.
  const engine::PlanRequest req = power_limited_search();
  engine::Engine eng;
  const engine::PlanResult cold = eng.run(req);
  ASSERT_TRUE(cold.ok) << cold.error;
  const engine::PlanResult warm = eng.run(req);

  const core::SystemModel sys = engine::build_system(req.system);
  const power::PowerBudget budget = req.budget(sys);
  ASSERT_TRUE(budget.is_constrained());
  search::SearchResult scratch = search::search_orders(sys, budget, req.search_options());
  engine::PlanResult reference;
  reference.id = req.id;
  reference.ok = true;
  reference.context = cold.context;  // names the SoC only
  reference.schedule = std::move(scratch.best);
  reference.search_metrics = std::move(scratch.metrics);

  EXPECT_EQ(engine::result_json(cold), engine::result_json(reference));
  EXPECT_EQ(engine::result_json(warm), engine::result_json(reference));
  EXPECT_EQ(warm.schedule.sessions, reference.schedule.sessions);
}

TEST(ContextCacheTest, EvictionIsLruOverTheReserveSequence) {
  engine::SystemSpec a = request("", "d695", 2).system;
  engine::SystemSpec b = request("", "d695", 4).system;
  engine::SystemSpec c = request("", "p22810", 2).system;

  engine::ContextCache cache(2);
  (void)cache.reserve(a);
  (void)cache.reserve(b);
  EXPECT_EQ(cache.keys_by_recency(), (std::vector<std::string>{a.cache_key(), b.cache_key()}));

  // Third distinct key evicts the least-recently reserved (a).
  (void)cache.reserve(c);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.keys_by_recency(), (std::vector<std::string>{b.cache_key(), c.cache_key()}));

  // Touching b refreshes its recency, so re-reserving a evicts c.
  (void)cache.reserve(b);
  EXPECT_EQ(cache.keys_by_recency(), (std::vector<std::string>{c.cache_key(), b.cache_key()}));
  (void)cache.reserve(a);
  EXPECT_EQ(cache.keys_by_recency(), (std::vector<std::string>{b.cache_key(), a.cache_key()}));

  const engine::ContextCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 4u);  // a, b, c, a
  EXPECT_EQ(stats.hits, 1u);    // the b touch
  EXPECT_EQ(stats.evictions, 2u);
}

TEST(ContextCacheTest, EvictedContextsSurviveThroughTheirHandles) {
  engine::ContextCache cache(1);
  const engine::ContextCache::Handle kept = cache.acquire(request("", "d695", 2).system);
  (void)cache.acquire(request("", "d695", 4).system);  // evicts the first slot
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(kept->spec().cache_key(), request("", "d695", 2).system.cache_key());
  EXPECT_GT(kept->system().soc().modules.size(), 0u);  // still alive and readable
}

TEST(Engine, FaultRequestsMatchTheReplanReference) {
  engine::PlanRequest req = request("faulted", "d695", 4);
  req.faults.procs = {11};

  engine::Engine eng;
  const engine::PlanResult res = eng.run(req);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.faulted);

  // The reference: the same pristine-table replan the engine routes
  // through, on an independently built system.
  const core::SystemModel sys = engine::build_system(req.system);
  noc::FaultSet faults;
  faults.fail_processor(11);
  search::SearchOptions sopts;
  sopts.seed = req.seed;
  sopts.iters = 0;
  sopts.jobs = 1;
  const search::ReplanResult reference = search::replan(
      sys, power::PowerBudget::unconstrained(), faults, sopts, core::PairTable(sys));

  EXPECT_EQ(res.schedule.makespan, reference.schedule.makespan);
  EXPECT_EQ(res.schedule.sessions.size(), reference.schedule.sessions.size());
  EXPECT_EQ(res.dead_modules, reference.dead_modules);
  EXPECT_EQ(res.untestable_modules, reference.untestable_modules);
  EXPECT_EQ(res.pairs_rebuilt, reference.pairs_rebuilt);
  EXPECT_GT(res.pairs_rebuilt, 0u);  // the incremental path actually ran
}

TEST(Engine, SimulateRequestsCarryTraceAndCrossCheck) {
  engine::PlanRequest req = request("sim", "d695", 2);
  req.simulate = true;
  engine::Engine eng;
  const engine::PlanResult res = eng.run(req);
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_TRUE(res.trace.has_value());
  ASSERT_TRUE(res.cross_check.has_value());
  EXPECT_TRUE(res.cross_check->ok());
  EXPECT_EQ(res.cross_check->planned_makespan, res.schedule.makespan);
}

TEST(Engine, FailuresAreInBandNeverThrown) {
  engine::Engine eng;

  // Execution-time failure (unresolvable fault reference): error result,
  // no context, no schedule.
  engine::PlanRequest bad_fault = request("bad-fault", "d695", 2);
  bad_fault.faults.procs = {999};
  const engine::PlanResult res = eng.run(bad_fault);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.context, nullptr);
  EXPECT_EQ(res.error, "faults.procs: no module 999");

  // With an origin set (serve requests), the diagnostic is prefixed.
  bad_fault.origin = "stdin:3";
  const engine::PlanResult prefixed = eng.run(bad_fault);
  EXPECT_FALSE(prefixed.ok);
  EXPECT_EQ(prefixed.error, "stdin:3: faults.procs: no module 999");

  // Context-build failure (unreadable file) also comes back in-band —
  // and deterministically: the retry reproduces the same diagnostic.
  engine::PlanRequest bad_file = request("bad-file", "d695", 2);
  bad_file.system.soc_file = "/nonexistent/fleet.soc";
  const engine::PlanResult first = eng.run(bad_file);
  const engine::PlanResult second = eng.run(bad_file);
  EXPECT_FALSE(first.ok);
  EXPECT_FALSE(second.ok);
  EXPECT_EQ(first.error, second.error);
  EXPECT_NE(first.error.find("/nonexistent/fleet.soc"), std::string::npos);
}

TEST(ContextCacheTest, FailedBuildReplaysItsDiagnosticWithoutRebuilding) {
  const std::string path = ::testing::TempDir() + "nocsched_failed_build.soc";
  std::ofstream(path) << "not a soc file\n";
  engine::Engine eng;
  engine::PlanRequest req = request("from-file", "d695", 2);
  req.system.soc_file = path;
  req.system.mesh_cols = 4;
  req.system.mesh_rows = 4;
  const engine::PlanResult first = eng.run(req);
  ASSERT_FALSE(first.ok);

  // Repair the file: the failed slot still answers with its first
  // diagnostic and never reads the file again, while a fresh cache
  // builds the repaired file.
  std::ofstream(path) << itc02::to_text(itc02::builtin_d695());
  const engine::PlanResult again = eng.run(req);
  EXPECT_FALSE(again.ok);
  EXPECT_EQ(again.error, first.error);
  EXPECT_TRUE(engine::Engine().run(req).ok);
  std::remove(path.c_str());
}

}  // namespace
