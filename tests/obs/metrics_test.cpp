// Unit-level contract of the metrics registry: sharded counters and
// histograms merge to exact totals (including under real thread
// contention — this suite runs in the CI TSan job), bucket boundaries
// follow Prometheus "le" semantics, deterministic() strips every
// wall-clock value, and the four exposition formats are byte-stable
// goldens over a hand-built snapshot.

#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "report/metrics_report.hpp"

namespace nocsched::obs {
namespace {

TEST(Counter, AccumulatesAndResets) {
  Counter c;
  c.add(3);
  c.inc();
  EXPECT_EQ(c.value(), 4u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, LastWriteWinsAndDeltasApply) {
  Gauge g;
  g.set(-5);
  g.add(2);
  EXPECT_EQ(g.value(), -3);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Histogram, BucketBoundsAreInclusiveUpperBounds) {
  Histogram h({10, 100});
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{10}, std::uint64_t{11}, std::uint64_t{100},
        std::uint64_t{101}, std::uint64_t{5000}}) {
    h.observe(v);
  }
  // v <= 10 | 10 < v <= 100 | overflow — boundary values land inside.
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{2, 2, 2}));
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 5222u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{0, 0, 0}));
}

TEST(Registry, HistogramFindOrCreateKeepsOriginalBounds) {
  Histogram& first = registry().histogram("unit.bounds_keep", {1, 2});
  Histogram& again = registry().histogram("unit.bounds_keep", {99});
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(again.bounds(), (std::vector<std::uint64_t>{1, 2}));
}

TEST(Registry, SnapshotMergesAndDeterministicDropsWallValues) {
  MetricsRegistry& reg = registry();
  reg.counter("unit.events").add(7);
  reg.gauge("unit.level").set(-2);
  reg.histogram("unit.hist", {10}).observe(3);
  reg.set_info("unit.label", "x");
  reg.set_wall_ms("wall.unit", 1.25);
  reg.counter("wall.unit.count").inc();  // "wall." namespace by name

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("unit.events"), 7u);
  EXPECT_EQ(snap.gauge_or("unit.level"), -2);
  EXPECT_EQ(snap.info_or("unit.label"), "x");
  EXPECT_EQ(snap.histograms.at("unit.hist").count, 1u);
  EXPECT_DOUBLE_EQ(snap.wall.at("wall.unit"), 1.25);
  EXPECT_EQ(snap.counter_or("wall.unit.count"), 1u);

  const MetricsSnapshot det = snap.deterministic();
  EXPECT_TRUE(det.wall.empty());
  EXPECT_EQ(det.counters.count("wall.unit.count"), 0u);
  EXPECT_EQ(det.counter_or("unit.events"), 7u);

  // _or accessors fall back instead of inserting.
  EXPECT_EQ(snap.counter_or("unit.missing", 9), 9u);
  EXPECT_EQ(snap.gauge_or("unit.missing", -1), -1);
  EXPECT_EQ(snap.info_or("unit.missing", "none"), "none");
}

TEST(Registry, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry& reg = registry();
  Counter& c = reg.counter("unit.reset_me");
  c.add(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  // The cached reference is still the live registration.
  c.inc();
  EXPECT_EQ(reg.snapshot().counter_or("unit.reset_me"), 1u);
}

TEST(Registry, ConcurrentIncrementsMergeToExactTotals) {
  // The TSan-checked claim: kShards relaxed shards make concurrent
  // add/observe race-free, and the merged totals are exact.
  MetricsRegistry& reg = registry();
  Counter& c = reg.counter("unit.contended");
  Histogram& h = reg.histogram("unit.contended_hist", {8});
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &h] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(i % 16);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  // Each thread cycles 0..15 exactly 625 times: sum 625*120 per thread,
  // 9 of every 16 observations (0..8) land at or below the bound.
  EXPECT_EQ(h.sum(), kThreads * 625u * 120u);
  EXPECT_EQ(h.bucket_counts(),
            (std::vector<std::uint64_t>{kThreads * 625u * 9u, kThreads * 625u * 7u}));
}

TEST(Registry, ShardsOutnumberedByLiveThreadsStillMergeExactly) {
  // More live threads than leasable shards: the ones left over share
  // kSharedShard through atomic adds, and no increment is lost.
  Counter c;
  constexpr int kThreads = static_cast<int>(kShards) + 6;
  constexpr std::uint64_t kPerThread = 2000;
  std::latch all_leased(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &all_leased] {
      c.inc();
      all_leased.arrive_and_wait();  // every thread holds its shard now
      for (std::uint64_t i = 1; i < kPerThread; ++i) c.inc();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Registry, ExitedThreadsHandTheirShardsOn) {
  // Threads that run one after another reuse the leases their
  // predecessors returned: each new owner continues from the old
  // owner's last store, so the totals stay exact.
  Counter c;
  for (int round = 0; round < 3 * static_cast<int>(kShards); ++round) {
    std::thread([&c, round] { c.add(static_cast<std::uint64_t>(round)); }).join();
  }
  const std::uint64_t rounds = 3 * kShards;
  EXPECT_EQ(c.value(), rounds * (rounds - 1) / 2);
}

// ---------------------------------------------------------------------------
// Exposition goldens.

MetricsSnapshot golden_snapshot() {
  MetricsSnapshot snap;
  snap.counters["alpha.count"] = 3;
  snap.gauges["beta.level"] = -2;
  HistogramSnapshot h;
  h.bounds = {10, 100};
  h.counts = {2, 2, 2};
  h.count = 6;
  h.sum = 5222;
  snap.histograms["gamma.hist"] = h;
  snap.info["strategy"] = "anneal";
  snap.wall["wall.total"] = 1.5;
  return snap;
}

TEST(Exposition, CsvGolden) {
  EXPECT_EQ(report::metrics_csv(golden_snapshot()),
            "kind,name,field,value\n"
            "counter,alpha.count,value,3\n"
            "gauge,beta.level,value,-2\n"
            "histogram,gamma.hist,count,6\n"
            "histogram,gamma.hist,sum,5222\n"
            "histogram,gamma.hist,le_10,2\n"
            "histogram,gamma.hist,le_100,2\n"
            "histogram,gamma.hist,le_inf,2\n"
            "info,strategy,value,anneal\n"
            "wall,wall.total,ms,1.500\n");
}

TEST(Exposition, JsonGolden) {
  EXPECT_EQ(report::metrics_json(golden_snapshot()),
            "{\n"
            "  \"counters\": {\"alpha.count\": 3},\n"
            "  \"gauges\": {\"beta.level\": -2},\n"
            "  \"histograms\": {\"gamma.hist\": {\"bounds\": [10, 100], "
            "\"counts\": [2, 2, 2], \"count\": 6, \"sum\": 5222}},\n"
            "  \"info\": {\"strategy\": \"anneal\"},\n"
            "  \"wall\": {\"wall.total\": 1.500}\n"
            "}\n");
}

TEST(Exposition, PrometheusGolden) {
  // Bucket counts are cumulative in the Prometheus exposition.
  EXPECT_EQ(report::metrics_prometheus(golden_snapshot()),
            "# TYPE nocsched_alpha_count counter\n"
            "nocsched_alpha_count 3\n"
            "# TYPE nocsched_beta_level gauge\n"
            "nocsched_beta_level -2\n"
            "# TYPE nocsched_gamma_hist histogram\n"
            "nocsched_gamma_hist_bucket{le=\"10\"} 2\n"
            "nocsched_gamma_hist_bucket{le=\"100\"} 4\n"
            "nocsched_gamma_hist_bucket{le=\"+Inf\"} 6\n"
            "nocsched_gamma_hist_sum 5222\n"
            "nocsched_gamma_hist_count 6\n"
            "# TYPE nocsched_strategy_info gauge\n"
            "nocsched_strategy_info{value=\"anneal\"} 1\n"
            "# TYPE nocsched_wall_total_ms gauge\n"
            "nocsched_wall_total_ms 1.500\n");
}

TEST(Exposition, TableListsEveryKind) {
  const std::string table = report::metrics_table(golden_snapshot());
  EXPECT_NE(table.find("metrics: 1 counters, 1 gauges, 1 histograms"), std::string::npos)
      << table;
  EXPECT_NE(table.find("counter    alpha.count"), std::string::npos) << table;
  EXPECT_NE(table.find("gauge      beta.level"), std::string::npos) << table;
  EXPECT_NE(table.find("count 6, sum 5222"), std::string::npos) << table;
  EXPECT_NE(table.find("le +inf"), std::string::npos) << table;
  EXPECT_NE(table.find("info       strategy"), std::string::npos) << table;
  EXPECT_NE(table.find("1.500 ms"), std::string::npos) << table;
}

}  // namespace
}  // namespace nocsched::obs
