#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <mutex>

#include "common/error.hpp"

namespace nocsched::obs {

namespace {

/// Which shards below kSharedShard a live thread holds.  Leaked, so a
/// thread exiting during static destruction still finds it.
struct ShardPool {
  std::mutex mutex;
  std::array<bool, kSharedShard> leased{};
};

ShardPool& shard_pool() {
  static ShardPool* const pool = new ShardPool;
  return *pool;
}

/// Returns the thread's leased shard to the pool at thread exit.  The
/// pool's mutex orders the old owner's last store before the next
/// owner's first load.  Any later write from this thread goes to the
/// shared shard.
struct ShardLease {
  ShardLease() = default;
  ShardLease(const ShardLease&) = delete;
  ShardLease& operator=(const ShardLease&) = delete;
  ~ShardLease() {
    const unsigned mine = detail::this_shard;
    detail::this_shard = kSharedShard;
    if (mine >= kSharedShard) return;
    ShardPool& pool = shard_pool();
    const std::lock_guard<std::mutex> lock(pool.mutex);
    pool.leased[mine] = false;
  }
};

}  // namespace

unsigned detail::lease_shard() {
  thread_local ShardLease lease;  // constructed once per thread: releases at exit
  ShardPool& pool = shard_pool();
  const std::lock_guard<std::mutex> lock(pool.mutex);
  const auto free = std::find(pool.leased.begin(), pool.leased.end(), false);
  if (free == pool.leased.end()) {
    this_shard = kSharedShard;
  } else {
    *free = true;
    this_shard = static_cast<unsigned>(free - pool.leased.begin());
  }
  return this_shard;
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)),
      stride_(bounds_.size() + 2),  // buckets + overflow + sum
      slots_(new std::atomic<std::uint64_t>[kShards * stride_]) {
  ensure(std::is_sorted(bounds_.begin(), bounds_.end()),
         "histogram bounds must be ascending");
  for (std::size_t i = 0; i < kShards * stride_; ++i) {
    slots_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe(std::uint64_t v) {
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  const unsigned index = shard_index();
  std::atomic<std::uint64_t>* shard = slots_.get() + index * stride_;
  shard_add(shard[bucket], index, 1);
  shard_add(shard[stride_ - 1], index, v);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1, 0);
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::atomic<std::uint64_t>* shard = slots_.get() + s * stride_;
    for (std::size_t b = 0; b < out.size(); ++b) {
      out[b] += shard[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : bucket_counts()) total += c;
  return total;
}

std::uint64_t Histogram::sum() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    total += slots_[s * stride_ + stride_ - 1].load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::reset() {
  for (std::size_t i = 0; i < kShards * stride_; ++i) {
    slots_[i].store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// MetricsSnapshot

namespace {

bool wall_name(const std::string& name) { return name.rfind("wall.", 0) == 0; }

template <class Map>
Map without_wall(const Map& in) {
  Map out;
  for (const auto& [name, value] : in) {
    if (!wall_name(name)) out.emplace(name, value);
  }
  return out;
}

}  // namespace

MetricsSnapshot MetricsSnapshot::deterministic() const {
  MetricsSnapshot out;
  out.counters = without_wall(counters);
  out.gauges = without_wall(gauges);
  out.histograms = without_wall(histograms);
  out.info = without_wall(info);
  return out;
}

std::uint64_t MetricsSnapshot::counter_or(const std::string& name,
                                          std::uint64_t fallback) const {
  const auto it = counters.find(name);
  return it == counters.end() ? fallback : it->second;
}

std::int64_t MetricsSnapshot::gauge_or(const std::string& name, std::int64_t fallback) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? fallback : it->second;
}

std::string MetricsSnapshot::info_or(const std::string& name, std::string fallback) const {
  const auto it = info.find(name);
  return it == info.end() ? std::move(fallback) : it->second;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[std::string(name)];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[std::string(name)];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<std::uint64_t> bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[std::string(name)];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

void MetricsRegistry::set_info(std::string_view name, std::string value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  info_[std::string(name)] = std::move(value);
}

void MetricsRegistry::set_wall_ms(std::string_view name, double ms) {
  const std::lock_guard<std::mutex> lock(mutex_);
  wall_[std::string(name)] = ms;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  for (const auto& [name, c] : counters_) out.counters.emplace(name, c->value());
  for (const auto& [name, g] : gauges_) out.gauges.emplace(name, g->value());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.bounds = h->bounds();
    hs.counts = h->bucket_counts();
    hs.sum = h->sum();
    for (const std::uint64_t c : hs.counts) hs.count += c;
    out.histograms.emplace(name, std::move(hs));
  }
  out.info = info_;
  out.wall = wall_;
  return out;
}

std::vector<std::pair<std::string, const Counter*>> MetricsRegistry::counter_list() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, const Counter*>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c.get());
  return out;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, c] : counters_) c->reset();
  for (const auto& [name, g] : gauges_) g->reset();
  for (const auto& [name, h] : histograms_) h->reset();
  info_.clear();
  wall_.clear();
}

MetricsRegistry& registry() {
  static MetricsRegistry instance;
  return instance;
}

}  // namespace nocsched::obs
