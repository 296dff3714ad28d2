// The ContextCache's 2Q policy over explicit reserve sequences: A1in
// is a FIFO of first-time specs, A1out a bounded FIFO of ghosts, Am an
// LRU of specs reserved again as ghosts.  Every decision is a pure
// function of the reserve() sequence, so the tests pin exact contents
// (keys_by_recency) and exact Stats, and the engine's batch driver
// keeps them at any worker count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/context_cache.hpp"
#include "engine/engine.hpp"
#include "engine/serve.hpp"

namespace {

using namespace nocsched;

/// A cheap distinct spec per n: the seeded random SoC "rand:<n>".
engine::SystemSpec spec(int n) {
  engine::SystemSpec s;
  s.soc = "rand:" + std::to_string(n);
  s.procs = 0;
  return s;
}

std::vector<std::string> keys(std::initializer_list<int> ns) {
  std::vector<std::string> out;
  for (const int n : ns) out.push_back(spec(n).cache_key());
  return out;
}

void reserve_all(engine::ContextCache& cache, std::initializer_list<int> ns) {
  for (const int n : ns) static_cast<void>(cache.reserve(spec(n)));
}

TEST(ContextCacheTest, EvictionIs2QOverTheReserveSequence) {
  // Capacity 4: A1in keeps 1 slot once full, A1out keeps 4 ghosts.
  enum : int { a, b, c, d, e, f, g, h, i, j };
  engine::ContextCache cache(4);
  reserve_all(cache, {a, b, c, d, a});  // the hit on a does not reorder A1in
  EXPECT_EQ(cache.keys_by_recency(), keys({a, b, c, d}));

  // Over capacity with Am empty: the A1in head becomes a ghost, even
  // though it was just hit.
  reserve_all(cache, {e, f});
  EXPECT_EQ(cache.keys_by_recency(), keys({c, d, e, f}));  // ghosts: a b

  // Ghost hits build fresh slots in Am; A1in, over its share, yields.
  reserve_all(cache, {a, b});
  EXPECT_EQ(cache.keys_by_recency(), keys({e, f, a, b}));  // ghosts: c d

  // A hit in Am moves it to the most-recent end.
  reserve_all(cache, {a, c});
  EXPECT_EQ(cache.keys_by_recency(), keys({f, b, a, c}));  // ghosts: d e

  // New keys cycle through A1in without touching Am.
  reserve_all(cache, {g, h});
  EXPECT_EQ(cache.keys_by_recency(), keys({h, b, a, c}));  // ghosts: d e f g

  // A1in at its share: the victim is Am's least recent (b), discarded.
  reserve_all(cache, {d});
  EXPECT_EQ(cache.keys_by_recency(), keys({h, a, c, d}));  // ghosts: e f g

  // A1out keeps 4 ghosts: e falls off and comes back as a first-time
  // key, and so does b, which left Am without a ghost.
  reserve_all(cache, {i, j, e, b});
  EXPECT_EQ(cache.keys_by_recency(), keys({b, a, c, d}));  // ghosts: h i j e
  EXPECT_EQ(cache.size(), 4u);

  const engine::ContextCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);         // a in A1in, a in Am
  EXPECT_EQ(stats.misses, 16u);
  EXPECT_EQ(stats.evictions, 12u);   // every miss after the fourth
  EXPECT_EQ(stats.promotions, 4u);   // a, b, c, d
}

TEST(ContextCacheTest, TinyCachesNeverEvictTheSlotJustReserved) {
  // At capacity 1 and 2 a promoted slot may be alone in Am while A1in
  // sits at its share: the victim must come from A1in instead.
  const std::vector<int> sequence = {0, 1, 0, 1, 1, 2, 0, 2, 1, 0, 0, 3, 2, 3, 1};
  for (const std::size_t capacity : {1u, 2u}) {
    engine::ContextCache cache(capacity);
    for (const int n : sequence) {
      const engine::ContextCache::Handle ctx = cache.acquire(spec(n));
      ASSERT_NE(ctx, nullptr);
      EXPECT_EQ(ctx->spec().cache_key(), spec(n).cache_key());
      EXPECT_GT(ctx->system().soc().modules.size(), 0u);  // built and readable
      const std::vector<std::string> resident = cache.keys_by_recency();
      EXPECT_LE(resident.size(), capacity);
      EXPECT_NE(std::find(resident.begin(), resident.end(), spec(n).cache_key()),
                resident.end())
          << "capacity " << capacity << " evicted rand:" << n << " on its own reserve";
    }
    const engine::ContextCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, sequence.size());
    EXPECT_EQ(stats.misses - stats.evictions, cache.size());
  }
}

TEST(ContextCacheTest, ACycleLongerThanTheCacheHitsOnMostReserves) {
  // 40 keys in a cycle through 32 slots: LRU evicts every key just
  // before its next use and never hits.
  engine::ContextCache cache(32);
  for (int n = 0; n < 600; ++n) static_cast<void>(cache.reserve(spec(n % 40)));
  const engine::ContextCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 600u);
  EXPECT_GT(stats.hits, 300u);
  EXPECT_EQ(cache.size(), 32u);
}

TEST(ContextCacheTest, AWorkingSetThatFitsNeverEvicts) {
  // Up to `capacity` keys in any order: every first reserve misses,
  // every later one hits, as under any policy.
  for (const int working_set : {1, 2, 5, 31, 32}) {
    Rng rng(static_cast<std::uint64_t>(working_set));
    engine::ContextCache cache(32);
    std::vector<bool> seen(static_cast<std::size_t>(working_set), false);
    std::uint64_t distinct = 0;
    const std::uint64_t reserves = 400;
    for (std::uint64_t r = 0; r < reserves; ++r) {
      const auto n = static_cast<int>(rng.below(static_cast<std::uint64_t>(working_set)));
      if (!seen[static_cast<std::size_t>(n)]) ++distinct;
      seen[static_cast<std::size_t>(n)] = true;
      static_cast<void>(cache.reserve(spec(n)));
    }
    const engine::ContextCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.misses, distinct) << working_set << " keys";
    EXPECT_EQ(stats.hits, reserves - distinct) << working_set << " keys";
    EXPECT_EQ(stats.evictions, 0u) << working_set << " keys";
    EXPECT_EQ(stats.promotions, 0u) << working_set << " keys";
    EXPECT_EQ(cache.size(), distinct);
  }
}

TEST(ContextCacheTest, BatchedCycleIsIdenticalAtAnyJobCount) {
  // 36 systems cycling through 32 slots, five passes, served in
  // batches of 16: replies, stats and contents do not depend on --jobs.
  std::vector<engine::PlanRequest> requests;
  for (int n = 0; n < 5 * 36; ++n) {
    engine::PlanRequest req;
    req.id = "r" + std::to_string(n);
    req.system = spec(n % 36);
    requests.push_back(std::move(req));
  }
  struct Outcome {
    std::vector<std::string> replies;
    engine::ContextCache::Stats stats;
    std::vector<std::string> resident;
  };
  auto serve = [&](unsigned jobs) {
    engine::Engine eng(engine::EngineOptions{/*cache_capacity=*/32, jobs});
    Outcome out;
    for (std::size_t first = 0; first < requests.size(); first += 16) {
      const std::size_t last = std::min(first + 16, requests.size());
      const std::vector<engine::PlanRequest> batch(requests.begin() + first,
                                                   requests.begin() + last);
      for (const engine::PlanResult& res : eng.run_batch(batch)) {
        EXPECT_TRUE(res.ok) << res.error;
        out.replies.push_back(engine::result_json(res));
      }
    }
    out.stats = eng.cache().stats();
    out.resident = eng.cache().keys_by_recency();
    return out;
  };
  const Outcome serial = serve(1);
  EXPECT_GT(serial.stats.hits, serial.stats.misses);
  EXPECT_GT(serial.stats.promotions, 0u);
  // Eviction never reaches the bytes: a cache holding all 36 agrees.
  engine::Engine roomy(engine::EngineOptions{/*cache_capacity=*/64, /*jobs=*/1});
  for (std::size_t n = 0; n < requests.size(); ++n) {
    EXPECT_EQ(engine::result_json(roomy.run(requests[n])), serial.replies[n]) << n;
  }
  for (const unsigned jobs : {2u, 8u}) {
    const Outcome parallel = serve(jobs);
    EXPECT_EQ(parallel.replies, serial.replies) << "jobs " << jobs;
    EXPECT_EQ(parallel.stats.hits, serial.stats.hits) << "jobs " << jobs;
    EXPECT_EQ(parallel.stats.misses, serial.stats.misses) << "jobs " << jobs;
    EXPECT_EQ(parallel.stats.evictions, serial.stats.evictions) << "jobs " << jobs;
    EXPECT_EQ(parallel.stats.promotions, serial.stats.promotions) << "jobs " << jobs;
    EXPECT_EQ(parallel.resident, serial.resident) << "jobs " << jobs;
  }
}

}  // namespace
