#include "core/pair_table.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nocsched::core {

namespace {

bool endpoint_failed(const Endpoint& ep, const noc::FaultSet& faults) {
  return ep.is_processor() && faults.processor_failed(ep.processor_module);
}

// Nearest-first order (and PairTable::summarize) are shared by the
// from-scratch build and the incremental rebuild: the two paths promise
// bit-identical tables, so there must be exactly one definition of
// each.
void sort_nearest_first(std::vector<PairChoice>& pairs) {
  std::sort(pairs.begin(), pairs.end(), [](const PairChoice& a, const PairChoice& b) {
    if (a.hops != b.hops) return a.hops < b.hops;
    if (a.source != b.source) return a.source < b.source;
    return a.sink < b.sink;
  });
}

std::uint64_t endpoint_bit(std::size_t r) { return r < 64 ? std::uint64_t{1} << r : 0; }

void flush_build(const std::vector<std::vector<PairChoice>>& by_module) {
  obs::MetricsRegistry& reg = obs::registry();
  if (!reg.enabled()) return;
  static obs::Counter& builds = reg.counter("pair_table.builds");
  static obs::Counter& built = reg.counter("pair_table.pairs_built");
  std::size_t pairs = 0;
  for (const std::vector<PairChoice>& v : by_module) pairs += v.size();
  builds.inc();
  built.add(pairs);
}

}  // namespace

void PairTable::build_module(const SystemModel& sys, const itc02::Module& m,
                             const noc::FaultSet& faults) {
  std::vector<PairChoice>& pairs = by_module_[static_cast<std::size_t>(m.id - 1)];
  pairs.clear();
  const std::vector<Endpoint>& eps = sys.endpoints();
  const bool cross = sys.params().allow_cross_pairing;
  const bool dead = m.is_processor && faults.processor_failed(m.id);
  for (std::size_t s = 0; !dead && s < eps.size(); ++s) {
    const Endpoint& src = eps[s];
    if (!src.can_source()) continue;
    if (src.is_processor() && src.processor_module == m.id) continue;
    if (src.is_processor() && !fits_processor_memory(sys, m.id, src.cpu)) continue;
    if (endpoint_failed(src, faults)) continue;
    for (std::size_t k = 0; k < eps.size(); ++k) {
      const Endpoint& snk = eps[k];
      if (!snk.can_sink()) continue;
      if (snk.is_processor() && snk.processor_module == m.id) continue;
      if (snk.is_processor() && !fits_processor_memory(sys, m.id, snk.cpu)) continue;
      if (endpoint_failed(snk, faults)) continue;
      if (s == k && !src.is_processor()) continue;  // only a CPU plays both roles
      if (!cross && s != k && (src.is_processor() || snk.is_processor())) {
        continue;  // default: ATE pair or one self-contained processor
      }
      std::optional<SessionPlan> plan = plan_session(sys, m.id, src, snk, faults);
      if (!plan) continue;  // no surviving route under the faults
      PairChoice choice;
      choice.source = s;
      choice.sink = k;
      choice.plan = std::move(*plan);
      // Route hops, not Manhattan distance: identical for XY routes,
      // and the honest locality metric for fault detours.
      choice.hops =
          static_cast<int>(choice.plan.path_in.size() + choice.plan.path_out.size());
      pairs.push_back(std::move(choice));
    }
  }
  sort_nearest_first(pairs);
  summarize(static_cast<std::size_t>(m.id - 1));
}

void PairTable::summarize(std::size_t i) {
  double cheapest = std::numeric_limits<double>::infinity();
  std::vector<std::uint64_t>& masks = masks_[i];
  masks.clear();
  for (const PairChoice& p : by_module_[i]) {
    cheapest = std::min(cheapest, p.plan.power);
    masks.push_back(endpoint_bit(p.source) | endpoint_bit(p.sink));
  }
  cheapest_[i] = cheapest;
}

PairTable::PairTable(const SystemModel& sys, const noc::FaultSet& faults) {
  const obs::Span span("pair_table_build");
  by_module_.resize(sys.soc().modules.size());
  cheapest_.resize(sys.soc().modules.size());
  masks_.resize(sys.soc().modules.size());
  for (const itc02::Module& m : sys.soc().modules) build_module(sys, m, faults);
  flush_build(by_module_);
}

std::size_t PairTable::apply_faults(const SystemModel& sys, const noc::FaultSet& faults) {
  ensure(by_module_.size() == sys.soc().modules.size(),
         "PairTable::apply_faults: table was built from a different system");
  if (faults.empty()) return 0;
  const std::vector<Endpoint>& eps = sys.endpoints();
  std::size_t rebuilt = 0;
  std::size_t stale = 0;  // pairs that could not be kept verbatim
  for (const itc02::Module& m : sys.soc().modules) {
    std::vector<PairChoice>& pairs = by_module_[static_cast<std::size_t>(m.id - 1)];
    const bool dead = (m.is_processor && faults.processor_failed(m.id)) ||
                      faults.router_failed(sys.router_of(m.id));
    bool touched = dead;
    for (std::size_t i = 0; !touched && i < pairs.size(); ++i) {
      const PairChoice& p = pairs[i];
      touched = endpoint_failed(eps[p.source], faults) ||
                endpoint_failed(eps[p.sink], faults) ||
                !faults.route_usable(sys.mesh(), p.plan.path_in) ||
                !faults.route_usable(sys.mesh(), p.plan.path_out);
    }
    if (!touched) continue;
    ++rebuilt;

    // Surgical rebuild: a pair whose endpoints are alive and whose
    // routes dodge the faults keeps its plan verbatim (fault_route
    // would return the same routes, so this is bit-identical to the
    // from-scratch build); only stale pairs are re-priced, dropping
    // the ones the degraded mesh cannot serve at all.
    std::vector<PairChoice> next;
    if (!dead) {
      next.reserve(pairs.size());
      for (PairChoice& p : pairs) {
        const Endpoint& src = eps[p.source];
        const Endpoint& snk = eps[p.sink];
        if (endpoint_failed(src, faults) || endpoint_failed(snk, faults)) {
          ++stale;
          continue;
        }
        if (faults.route_usable(sys.mesh(), p.plan.path_in) &&
            faults.route_usable(sys.mesh(), p.plan.path_out)) {
          next.push_back(std::move(p));
          continue;
        }
        ++stale;
        std::optional<SessionPlan> plan = plan_session(sys, m.id, src, snk, faults);
        if (!plan) continue;
        PairChoice detoured;
        detoured.source = p.source;
        detoured.sink = p.sink;
        detoured.hops =
            static_cast<int>(plan->path_in.size() + plan->path_out.size());
        detoured.plan = std::move(*plan);
        next.push_back(std::move(detoured));
      }
      sort_nearest_first(next);
    } else {
      stale += pairs.size();
    }
    pairs = std::move(next);
    summarize(static_cast<std::size_t>(m.id - 1));
  }

  obs::MetricsRegistry& reg = obs::registry();
  if (reg.enabled()) {
    static obs::Counter& modules = reg.counter("pair_table.modules_rebuilt");
    static obs::Counter& stale_pairs = reg.counter("pair_table.stale_pairs");
    modules.add(rebuilt);
    stale_pairs.add(stale);
  }
  return rebuilt;
}

std::vector<bool> PairTable::testable_modules(const SystemModel& sys, double power_limit,
                                              std::span<const int> pretested) const {
  const std::vector<Endpoint>& eps = sys.endpoints();
  std::vector<bool> done(by_module_.size(), false);
  for (const int id : pretested) {
    ensure(id >= 1 && static_cast<std::size_t>(id) <= by_module_.size(),
           "testable_modules: unknown pretested module id ", id);
    done[static_cast<std::size_t>(id - 1)] = true;
  }
  std::vector<bool> testable(by_module_.size(), false);
  // Least fixpoint: a module becomes testable once one of its pairs
  // fits the power limit and every processor endpoint on it is
  // pretested (its own test already happened in an earlier epoch) or
  // itself testable.  Growth starts from the modules the ATE ports
  // serve alone and terminates because bits only ever set.  (A greatest
  // fixpoint — start from every module with a pair, clear the ones left
  // without a usable pair — keeps processors that could only be served
  // through each other, and the planner then gets stuck on them.)
  for (bool changed = true; changed;) {
    changed = false;
    for (const itc02::Module& m : sys.soc().modules) {
      const std::size_t i = static_cast<std::size_t>(m.id - 1);
      if (testable[i]) continue;
      for (const PairChoice& p : by_module_[i]) {
        if (p.plan.power > power_limit) continue;
        bool servers_ready = true;
        for (const std::size_t e : {p.source, p.sink}) {
          const Endpoint& ep = eps[e];
          if (ep.is_processor() &&
              !done[static_cast<std::size_t>(ep.processor_module - 1)] &&
              !testable[static_cast<std::size_t>(ep.processor_module - 1)]) {
            servers_ready = false;
            break;
          }
        }
        if (servers_ready) {
          testable[i] = true;
          changed = true;
          break;
        }
      }
    }
  }
  return testable;
}

bool PairTable::has_pairs(int module_id) const { return !by_module_[index_of(module_id)].empty(); }

double PairTable::cheapest_power(int module_id) const { return cheapest_[index_of(module_id)]; }

void PairTable::unknown_module(int module_id) {
  fail("PairTable: unknown module id ", module_id);
}

}  // namespace nocsched::core
