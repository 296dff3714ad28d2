#include "engine/context_cache.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/placement.hpp"
#include "itc02/builtin.hpp"
#include "itc02/parser.hpp"
#include "itc02/random_soc.hpp"
#include "obs/metrics.hpp"
#include "power/budget.hpp"

namespace nocsched::engine {

core::SystemModel build_system(const SystemSpec& spec) {
  if (spec.soc_file.empty() && !starts_with(spec.soc, "rand:")) {
    return core::SystemModel::paper_system(spec.soc, spec.cpu, spec.procs, spec.params);
  }
  itc02::Soc soc = [&] {
    if (!spec.soc_file.empty()) return itc02::load_file(spec.soc_file);
    // "rand:<seed>": the property suites' generator, on a dedicated
    // stream so a request seed never collides with a search seed.
    Rng rng = stream_rng(parse_u64(std::string_view(spec.soc).substr(5), "soc seed"), 0x50C);
    return itc02::random_soc(rng);
  }();
  soc = itc02::with_processors(std::move(soc), spec.cpu, spec.procs);
  noc::Mesh mesh = spec.mesh_cols > 0 ? noc::Mesh(spec.mesh_cols, spec.mesh_rows)
                                      : [&] {
                                          // Smallest square mesh that fits one
                                          // module per router where possible.
                                          int side = 1;
                                          while (side * side <
                                                 static_cast<int>(soc.modules.size())) {
                                            ++side;
                                          }
                                          return noc::Mesh(side, side);
                                        }();
  auto placement = core::default_placement(soc, mesh);
  const noc::RouterId in = core::default_ate_input(mesh);
  const noc::RouterId out = core::default_ate_output(mesh);
  return core::SystemModel(std::move(soc), std::move(mesh), std::move(placement), in, out,
                           spec.params);
}

PlanContext::PlanContext(const SystemSpec& spec)
    : spec_(spec),
      sys_(std::make_unique<const core::SystemModel>(build_system(spec))),
      scaffold_(std::make_unique<const search::EvalContext>(
          *sys_, power::PowerBudget::unconstrained())) {}

ContextCache::ContextCache(std::size_t capacity) : capacity_(capacity) {
  ensure(capacity_ > 0, "ContextCache: capacity must be at least 1");
}

ContextCache::SlotHandle ContextCache::reserve(const SystemSpec& spec) {
  const std::lock_guard<std::mutex> lock(mutex_);
  obs::MetricsRegistry& reg = obs::registry();
  const auto it = slots_.find(spec);
  if (it != slots_.end()) {
    it->second->seq = ++seq_;
    ++stats_.hits;
    if (reg.enabled()) reg.counter("serve.cache.hits").inc();
    return it->second;
  }
  auto slot = std::make_shared<Slot>();
  slot->spec = spec;
  slot->seq = ++seq_;
  slots_.emplace(spec, slot);
  ++stats_.misses;
  if (reg.enabled()) reg.counter("serve.cache.misses").inc();
  while (slots_.size() > capacity_) {
    // Evict the least-recently reserved slot.  In-flight holders keep
    // the context alive through their shared_ptr; the cache just stops
    // vending it.
    auto victim = slots_.begin();
    for (auto cand = slots_.begin(); cand != slots_.end(); ++cand) {
      if (cand->second->seq < victim->second->seq) victim = cand;
    }
    slots_.erase(victim);
    ++stats_.evictions;
    if (reg.enabled()) reg.counter("serve.cache.evictions").inc();
  }
  return slot;
}

ContextCache::Handle ContextCache::context(const SlotHandle& slot) {
  ensure(slot != nullptr, "ContextCache::context: null slot");
  const std::lock_guard<std::mutex> lock(slot->build);
  if (slot->state == Slot::State::kUnbuilt) {
    try {
      slot->context = std::make_shared<const PlanContext>(slot->spec);
      slot->state = Slot::State::kBuilt;
    } catch (const Error& e) {
      slot->error = e.what();
      slot->state = Slot::State::kFailed;
    }
  }
  if (slot->state == Slot::State::kFailed) throw Error(slot->error);
  return slot->context;
}

ContextCache::Handle ContextCache::acquire(const SystemSpec& spec) {
  return context(reserve(spec));
}

ContextCache::Stats ContextCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ContextCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

std::vector<std::string> ContextCache::keys_by_recency() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::uint64_t, const SystemSpec*>> order;
  order.reserve(slots_.size());
  for (const auto& [spec, slot] : slots_) order.emplace_back(slot->seq, &spec);
  std::sort(order.begin(), order.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<std::string> keys;
  keys.reserve(order.size());
  for (const auto& [seq, spec] : order) keys.push_back(spec->cache_key());
  return keys;
}

}  // namespace nocsched::engine
