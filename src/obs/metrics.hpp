#pragma once
// Deterministic-by-construction metrics: named counters, gauges, and
// fixed-bucket histograms with per-thread shards.
//
// Every value-carrying slot is sharded across kShards cache-line-padded
// relaxed atomics indexed by a per-thread shard lease, so concurrent
// increments never contend on one line and never race; a snapshot
// merges the shards in shard-index order.  A leased shard has one
// writer at a time, so an increment is a relaxed load and store, not a
// locked read-modify-write: every planner run flushes six counters, and
// six locked adds (~57 ns on a 4-vCPU VM, against ~9 ns as stores) were
// about 3% of a search evaluation the kernel cuts off early.  Because the *work*
// that drives the increments is itself deterministic (the parallel_for
// contract), merged totals are bit-identical at any --jobs count — the
// shard a given increment lands in varies run to run, the sum does not.
//
// Wall-clock values are the one deliberate exception: they live under
// the "wall." name prefix (and the dedicated wall-timer map) and are
// excluded from byte-stable outputs by MetricsSnapshot::deterministic().
//
// Instrumentation is free when disabled: hot paths accumulate plain
// local integers and flush once per run behind registry().enabled(),
// so the disabled path costs one relaxed load per flush site
// (bench/multistart_perf's MOH rows price the enabled path too).
// Metric objects are never destroyed once registered — reset() zeroes
// values but keeps registrations — so cached Counter& references from
// flush sites stay valid for the process lifetime.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace nocsched::obs {

/// Shard count: a power of two comfortably above any sane worker count.
inline constexpr std::size_t kShards = 64;

/// The shard that threads beyond the kShards - 1 leased ones share.
inline constexpr unsigned kSharedShard = static_cast<unsigned>(kShards - 1);

namespace detail {
inline constexpr unsigned kNoShard = ~0u;
/// This thread's shard; kNoShard until its first metric write.
inline constinit thread_local unsigned this_shard = kNoShard;
/// Leases this thread the lowest free shard below kSharedShard (or
/// kSharedShard when none is free), stores it in this_shard, and
/// returns the lease to the pool when the thread exits.
unsigned lease_shard();
}  // namespace detail

/// This thread's shard index in [0, kShards).  Each live thread holds
/// its own shard below kSharedShard until it exits, when the next new
/// thread may take it over; only threads beyond kShards - 1 live ones
/// share kSharedShard.
[[nodiscard]] inline unsigned shard_index() {
  const unsigned mine = detail::this_shard;
  return mine != detail::kNoShard ? mine : detail::lease_shard();
}

/// Adds `n` to this thread's `slot` of shard `shard`: a relaxed load and
/// store on a leased shard (its one writer), an atomic add on the
/// shared one.
inline void shard_add(std::atomic<std::uint64_t>& slot, unsigned shard, std::uint64_t n) {
  if (shard != kSharedShard) {
    slot.store(slot.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  } else {
    slot.fetch_add(n, std::memory_order_relaxed);
  }
}

/// Monotonically increasing event count.  add() is wait-free after the
/// first call and safe from any thread.
class Counter {
 public:
  void add(std::uint64_t n) {
    const unsigned shard = shard_index();
    shard_add(shards_[shard].v, shard, n);
  }
  void inc() { add(1); }

  /// Total across shards, merged in shard-index order.
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Slot& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  /// One shard's share — spans read their own thread's shard only, so
  /// per-span deltas never touch another thread's live slot.
  [[nodiscard]] std::uint64_t shard_value(unsigned shard) const {
    return shards_[shard % kShards].v.load(std::memory_order_relaxed);
  }

  void reset() {
    for (Slot& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Slot, kShards> shards_{};
};

/// A point-in-time signed value (last write wins; add() for deltas).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { set(0); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram over unsigned values.  Bucket i counts
/// observations v <= bounds[i] (Prometheus "le" semantics); one
/// implicit overflow bucket catches the rest.  Sharded like Counter.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t v);

  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  /// Per-bucket totals (bounds().size() + 1 entries, overflow last).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] std::uint64_t sum() const;
  void reset();

 private:
  // Per-shard layout: [bucket 0 .. bucket B] [sum]; stride_ slots.
  std::vector<std::uint64_t> bounds_;
  std::size_t stride_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;
};

struct HistogramSnapshot {
  std::vector<std::uint64_t> bounds;  ///< ascending inclusive upper bounds
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1, overflow last
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
};

/// A merged, immutable view of a registry (or a hand-built record: the
/// search driver fills one per run so results are reportable without
/// touching global state).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  std::map<std::string, std::string> info;  ///< labels, e.g. strategy names
  std::map<std::string, double> wall;       ///< wall-clock ms — nondeterministic

  /// The byte-stable subset: drops the wall map and every entry whose
  /// name is in the "wall." namespace.
  [[nodiscard]] MetricsSnapshot deterministic() const;

  [[nodiscard]] std::uint64_t counter_or(const std::string& name,
                                         std::uint64_t fallback = 0) const;
  [[nodiscard]] std::int64_t gauge_or(const std::string& name, std::int64_t fallback = 0) const;
  [[nodiscard]] std::string info_or(const std::string& name, std::string fallback = "") const;
};

/// Name -> metric registry.  find-or-create takes a mutex; the returned
/// references are valid for the process lifetime (reset() zeroes values
/// without destroying objects), so callers cache them across runs.
class MetricsRegistry {
 public:
  /// Collection switch: instrumentation flush sites check this once per
  /// run and skip all registry work when off (the default).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// Find-or-create; an existing histogram keeps its original bounds.
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::vector<std::uint64_t> bounds);
  void set_info(std::string_view name, std::string value);
  /// Wall timers: clearly-nondeterministic, kept out of byte-stable
  /// outputs regardless of name (they also conventionally start "wall.").
  void set_wall_ms(std::string_view name, double ms);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Registered counters in name order — the span tracer snapshots
  /// these per thread to attach per-span counter deltas.
  [[nodiscard]] std::vector<std::pair<std::string, const Counter*>> counter_list() const;
  /// Zero every value; registrations (and references to them) survive.
  /// Call it between runs only: an increment racing with it may undo
  /// the zeroing of its own shard.
  void reset();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::string> info_;
  std::map<std::string, double> wall_;
};

/// The process-wide registry every instrumentation site flushes into.
[[nodiscard]] MetricsRegistry& registry();

}  // namespace nocsched::obs
