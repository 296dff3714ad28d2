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

ContextCache::ContextCache(std::size_t capacity)
    : capacity_(capacity), a1in_share_(std::max<std::size_t>(capacity / 4, 1)) {
  ensure(capacity_ > 0, "ContextCache: capacity must be at least 1");
}

void ContextCache::link(Slot& slot, SlotList& list, Slot::Segment segment) {
  slot.segment = segment;
  slot.pos = list.insert(list.end(), &slot);
}

ContextCache::SlotHandle ContextCache::reserve(const SystemSpec& spec) {
  const std::lock_guard<std::mutex> lock(mutex_);
  obs::MetricsRegistry& reg = obs::registry();
  auto it = slots_.find(spec);
  if (it != slots_.end() && it->second->segment != Slot::Segment::kA1out) {
    Slot& slot = *it->second;
    if (slot.segment == Slot::Segment::kAm) am_.splice(am_.end(), am_, slot.pos);
    ++stats_.hits;
    if (reg.enabled()) reg.counter("serve.cache.hits").inc();
    return it->second;
  }
  ++stats_.misses;
  if (reg.enabled()) reg.counter("serve.cache.misses").inc();
  if (it == slots_.end()) {
    auto slot = std::make_shared<Slot>();
    slot->spec = spec;
    it = slots_.emplace(spec, std::move(slot)).first;
    link(*it->second, a1in_, Slot::Segment::kA1in);
  } else {
    // A ghost is never vended, so its slot is still unbuilt and can
    // serve as the fresh Am slot.
    a1out_.erase(it->second->pos);
    link(*it->second, am_, Slot::Segment::kAm);
    ++stats_.promotions;
    if (reg.enabled()) reg.counter("serve.cache.promotions").inc();
  }
  while (a1in_.size() + am_.size() > capacity_) {
    evict_one(it->second.get());
    ++stats_.evictions;
    if (reg.enabled()) reg.counter("serve.cache.evictions").inc();
  }
  return it->second;
}

void ContextCache::evict_one(const Slot* fresh) {
  // Over capacity means at least two resident slots, so when the chosen
  // list's head is `fresh` (alone in its list) the other list has one.
  const bool from_a1in = a1in_.size() > a1in_share_ || am_.empty();
  SlotList* list = from_a1in ? &a1in_ : &am_;
  if (list->front() == fresh) list = from_a1in ? &am_ : &a1in_;
  Slot* victim = list->front();
  list->pop_front();
  const auto entry = slots_.find(victim->spec);
  // In-flight holders keep the victim and its context alive through
  // their shared_ptr; the cache just stops vending it.
  if (list == &am_) {
    slots_.erase(entry);
    return;
  }
  // An A1in victim leaves a ghost: a fresh slot holding the spec only.
  entry->second = std::make_shared<Slot>();
  entry->second->spec = entry->first;
  link(*entry->second, a1out_, Slot::Segment::kA1out);
  if (a1out_.size() > capacity_) {
    const Slot* oldest = a1out_.front();
    a1out_.pop_front();
    slots_.erase(slots_.find(oldest->spec));
  }
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
  return a1in_.size() + am_.size();
}

std::vector<std::string> ContextCache::keys_by_recency() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> keys;
  keys.reserve(a1in_.size() + am_.size());
  for (const SlotList* list : {&a1in_, &am_}) {
    for (const Slot* slot : *list) keys.push_back(slot->spec.cache_key());
  }
  return keys;
}

}  // namespace nocsched::engine
