// The ContextCache keys slots by the SystemSpec's fields (SpecLess),
// not by the cache_key() string.  These tests pin that the two agree:
// over a seeded set of specs varying every field the rendering covers,
// two specs share a slot exactly when their cache_key()s are equal —
// and that the field order is a strict total order the cache can sort.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "engine/context_cache.hpp"
#include "engine/request.hpp"

namespace {

using namespace nocsched;

template <typename T, std::size_t N>
T pick(Rng& rng, const T (&pool)[N]) {
  return pool[rng.below(N)];
}

using Mutator = std::function<void(engine::SystemSpec&, Rng&)>;

/// One mutator per field cache_key() renders, each drawing the field
/// from a small pool, so equal specs (and specs equal in all but one
/// field) come up often.  The first ones are the wire fields; the rest
/// are the PlannerParams scalars no request line can set.  Every double
/// pool keeps its values apart at 15 significant digits (and holds both
/// zeros), so the rendering distinguishes them.
std::vector<Mutator> wire_mutators() {
  return {
      [](engine::SystemSpec& s, Rng& rng) {
        const char* socs[] = {"d695", "p22810", "p93791", "rand:7", "rand:8"};
        s.soc = pick(rng, socs);
      },
      // A file overrides the SoC name, which then must not split slots.
      [](engine::SystemSpec& s, Rng& rng) {
        const char* files[] = {"", "", "data/d695.soc", "data/p22810.soc"};
        s.soc_file = pick(rng, files);
      },
      [](engine::SystemSpec& s, Rng& rng) {
        const itc02::ProcessorKind cpus[] = {itc02::ProcessorKind::kLeon,
                                             itc02::ProcessorKind::kPlasma};
        s.cpu = pick(rng, cpus);
      },
      [](engine::SystemSpec& s, Rng& rng) {
        const int procs[] = {1, 2, 4};
        s.procs = pick(rng, procs);
      },
      [](engine::SystemSpec& s, Rng& rng) {
        const std::pair<int, int> meshes[] = {{0, 0}, {4, 4}, {5, 4}, {4, 5}};
        std::tie(s.mesh_cols, s.mesh_rows) = pick(rng, meshes);
      },
      [](engine::SystemSpec& s, Rng& rng) {
        const std::uint32_t wrappers[] = {4, 8};
        s.params.wrapper_chains = pick(rng, wrappers);
      },
      [](engine::SystemSpec& s, Rng& rng) {
        const core::PriorityPolicy policies[] = {core::PriorityPolicy::kLongestTestFirst,
                                                 core::PriorityPolicy::kDistanceFirst,
                                                 core::PriorityPolicy::kShortestTestFirst};
        s.params.priority = pick(rng, policies);
      },
      [](engine::SystemSpec& s, Rng& rng) {
        const core::ResourceChoice choices[] = {core::ResourceChoice::kFirstAvailable,
                                                core::ResourceChoice::kEarliestCompletion};
        s.params.resource_choice = pick(rng, choices);
      },
  };
}

std::vector<Mutator> param_mutators() {
  std::vector<Mutator> out = {
      [](engine::SystemSpec& s, Rng& rng) {
        const core::PairOrder orders[] = {core::PairOrder::kNearestFirst,
                                          core::PairOrder::kFastestFirst};
        s.params.pair_order = pick(rng, orders);
      },
      [](engine::SystemSpec& s, Rng& rng) {
        const core::ChannelModel models[] = {core::ChannelModel::kMultiplexed,
                                             core::ChannelModel::kCircuit};
        s.params.channel_model = pick(rng, models);
      },
      [](engine::SystemSpec& s, Rng& rng) { s.params.processors_first = rng.chance(0.5); },
      [](engine::SystemSpec& s, Rng& rng) { s.params.allow_cross_pairing = rng.chance(0.5); },
      [](engine::SystemSpec& s, Rng& rng) {
        const std::uint32_t widths[] = {32, 64};
        s.params.noc.flit_width_bits = pick(rng, widths);
      },
      [](engine::SystemSpec& s, Rng& rng) {
        const std::uint32_t latencies[] = {3, 5};
        s.params.noc.routing_latency = pick(rng, latencies);
      },
      [](engine::SystemSpec& s, Rng& rng) {
        const std::uint32_t latencies[] = {1, 2};
        s.params.noc.flow_control_latency = pick(rng, latencies);
      },
  };
  const auto real = [](auto field) {
    return [field](engine::SystemSpec& s, Rng& rng) {
      const double pool[] = {0.0, -0.0, 12.5, 1e-7};
      field(s.params) = pick(rng, pool);
    };
  };
  const auto count = [](auto field) {
    return [field](engine::SystemSpec& s, Rng& rng) {
      const std::uint64_t pool[] = {4096, 1 << 20};
      field(s.params) = pick(rng, pool);
    };
  };
  out.push_back(real([](core::PlannerParams& p) -> double& { return p.noc.hop_power; }));
  for (core::CpuRates core::PlannerParams::*rates :
       {&core::PlannerParams::leon, &core::PlannerParams::plasma}) {
    for (double core::CpuRates::*v :
         {&core::CpuRates::per_stimulus_flit, &core::CpuRates::per_response_flit,
          &core::CpuRates::per_pattern_overhead, &core::CpuRates::setup_cycles,
          &core::CpuRates::active_power}) {
      out.push_back(real([=](core::PlannerParams& p) -> double& { return (p.*rates).*v; }));
    }
    for (std::uint64_t core::CpuRates::*v :
         {&core::CpuRates::program_bytes, &core::CpuRates::memory_bytes}) {
      out.push_back(
          count([=](core::PlannerParams& p) -> std::uint64_t& { return (p.*rates).*v; }));
    }
  }
  return out;
}

std::vector<engine::SystemSpec> spec_set() {
  const std::vector<Mutator> wire = wire_mutators();
  const std::vector<Mutator> params = param_mutators();
  std::vector<Mutator> every = wire;
  every.insert(every.end(), params.begin(), params.end());
  EXPECT_EQ(every.size(), 8u + 22u);  // one per field cache_key() renders

  Rng rng(0xCAC4E);
  std::vector<engine::SystemSpec> specs;
  // Independent draws: every wire field, and each other scalar moved
  // off its default now and then.
  for (int i = 0; i < 200; ++i) {
    engine::SystemSpec s;
    for (const Mutator& m : wire) m(s, rng);
    for (const Mutator& m : params) {
      if (rng.below(8) == 0) m(s, rng);
    }
    specs.push_back(std::move(s));
  }
  // Twins: a drawn spec with one field redrawn — often to the same
  // value — so both "same field, same slot" and "one field apart,
  // apart" come up for every field.
  for (int i = 0; i < 600; ++i) {
    engine::SystemSpec twin = specs[rng.below(200)];
    every[rng.below(every.size())](twin, rng);
    specs.push_back(std::move(twin));
  }
  return specs;
}

bool equivalent(const engine::SystemSpec& a, const engine::SystemSpec& b) {
  const engine::SpecLess less;
  return !less(a, b) && !less(b, a);
}

TEST(CacheKey, SpecsAreEquivalentExactlyWhenTheirKeysAreEqual) {
  const std::vector<engine::SystemSpec> specs = spec_set();
  std::vector<std::string> keys;
  for (const engine::SystemSpec& spec : specs) keys.push_back(spec.cache_key());
  const std::set<std::string> distinct(keys.begin(), keys.end());
  std::size_t equal_pairs = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t j = 0; j < specs.size(); ++j) {
      const bool same_key = keys[i] == keys[j];
      ASSERT_EQ(equivalent(specs[i], specs[j]), same_key) << keys[i] << "\n" << keys[j];
      if (same_key && i != j) ++equal_pairs;
    }
  }
  // The set must exercise both outcomes, not just distinct specs.
  EXPECT_GT(equal_pairs, 200u);
  EXPECT_GT(distinct.size(), 400u);
}

TEST(CacheKey, SpecLessIsAStrictTotalOrderOverTheKeys) {
  std::vector<engine::SystemSpec> specs = spec_set();
  std::sort(specs.begin(), specs.end(), engine::SpecLess{});
  // Sorted, every key forms one contiguous run, and runs never repeat.
  std::set<std::string> closed;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string key = specs[i].cache_key();
    EXPECT_FALSE(engine::SpecLess{}(specs[i], specs[i]));
    if (i > 0 && specs[i - 1].cache_key() == key) continue;
    EXPECT_TRUE(closed.insert(key).second) << "key split into two runs: " << key;
    if (i > 0) {
      EXPECT_TRUE(engine::SpecLess{}(specs[i - 1], specs[i]));
    }
  }
}

TEST(CacheKey, SlotsAreSharedExactlyWhenKeysAreEqual) {
  const std::vector<engine::SystemSpec> specs = spec_set();
  engine::ContextCache cache(specs.size());
  std::map<std::string, engine::ContextCache::SlotHandle> by_key;
  for (const engine::SystemSpec& spec : specs) {
    const engine::ContextCache::SlotHandle slot = cache.reserve(spec);
    const auto it = by_key.emplace(spec.cache_key(), slot).first;
    EXPECT_EQ(it->second, slot) << spec.cache_key();
  }
  EXPECT_EQ(cache.size(), by_key.size());
  EXPECT_EQ(cache.stats().misses, by_key.size());
  EXPECT_EQ(cache.stats().hits, specs.size() - by_key.size());
}

TEST(CacheKey, ANonWireRateChangeBuildsItsOwnContext) {
  engine::SystemSpec base;
  engine::SystemSpec hotter = base;
  hotter.params.leon.active_power = base.params.leon.active_power + 1.0;
  ASSERT_NE(base.cache_key(), hotter.cache_key());

  engine::ContextCache cache(4);
  const engine::ContextCache::Handle a = cache.acquire(base);
  const engine::ContextCache::Handle b = cache.acquire(hotter);
  EXPECT_NE(a, b);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(b->spec().params.leon.active_power, hotter.params.leon.active_power);
  EXPECT_EQ(b->system().params().leon.active_power, hotter.params.leon.active_power);
  EXPECT_EQ(cache.acquire(base), a);  // the original is still a hit
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(CacheKey, DoublesCompareByBitPattern) {
  engine::ContextCache cache(8);
  engine::SystemSpec nan_spec;
  nan_spec.params.noc.hop_power = std::numeric_limits<double>::quiet_NaN();
  // NaN != NaN, but a spec holding NaN still finds its own slot.
  EXPECT_EQ(cache.reserve(nan_spec), cache.reserve(nan_spec));

  engine::SystemSpec zero;
  zero.params.noc.hop_power = 0.0;
  engine::SystemSpec neg_zero;
  neg_zero.params.noc.hop_power = -0.0;
  EXPECT_NE(cache.reserve(zero), cache.reserve(neg_zero));
  EXPECT_NE(zero.cache_key(), neg_zero.cache_key());

  // The rendering keeps 15 significant digits, so it merges doubles
  // one ulp apart; the structural key keeps their systems apart.
  engine::SystemSpec ulp = zero;
  ulp.params.noc.hop_power = std::nextafter(40.0, 41.0);
  engine::SystemSpec forty = zero;
  forty.params.noc.hop_power = 40.0;
  EXPECT_EQ(ulp.cache_key(), forty.cache_key());
  EXPECT_NE(cache.reserve(ulp), cache.reserve(forty));
}

}  // namespace
