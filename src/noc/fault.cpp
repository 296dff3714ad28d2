#include "noc/fault.hpp"

#include <algorithm>
#include <deque>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "noc/routing.hpp"

namespace nocsched::noc {

namespace {

template <typename T>
void insert_sorted_unique(std::vector<T>& v, T value) {
  const auto it = std::lower_bound(v.begin(), v.end(), value);
  if (it == v.end() || *it != value) v.insert(it, value);
}

template <typename T>
bool contains_sorted(const std::vector<T>& v, T value) {
  return std::binary_search(v.begin(), v.end(), value);
}

template <typename T>
std::string braces(const std::vector<T>& v) {
  std::string out = "{";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ", ";
    out += cat(v[i]);
  }
  out += "}";
  return out;
}

}  // namespace

void FaultSet::fail_channel(ChannelId c) {
  ensure(c >= 0, "FaultSet: bad channel id ", c);
  insert_sorted_unique(channels_, c);
}

void FaultSet::fail_router(RouterId r) {
  ensure(r >= 0, "FaultSet: bad router id ", r);
  insert_sorted_unique(routers_, r);
}

void FaultSet::fail_processor(int module_id) {
  ensure(module_id >= 1, "FaultSet: bad processor module id ", module_id);
  insert_sorted_unique(processors_, module_id);
}

bool FaultSet::channel_failed(ChannelId c) const { return contains_sorted(channels_, c); }

bool FaultSet::router_failed(RouterId r) const { return contains_sorted(routers_, r); }

bool FaultSet::processor_failed(int module_id) const {
  return contains_sorted(processors_, module_id);
}

bool FaultSet::channel_usable(const Mesh& mesh, ChannelId c) const {
  if (channel_failed(c)) return false;
  return !router_failed(mesh.channel_source(c)) && !router_failed(mesh.channel_target(c));
}

bool FaultSet::route_usable(const Mesh& mesh, std::span<const ChannelId> path) const {
  if (channels_.empty() && routers_.empty()) return true;  // no channel or router is down
  for (ChannelId c : path) {
    if (!channel_usable(mesh, c)) return false;
  }
  return true;
}

std::string FaultSet::describe() const {
  return cat("links ", braces(channels_), ", routers ", braces(routers_), ", procs ",
             braces(processors_));
}

std::optional<std::vector<ChannelId>> fault_route(const Mesh& mesh, const FaultSet& faults,
                                                  RouterId from, RouterId to) {
  if (faults.router_failed(from) || faults.router_failed(to)) return std::nullopt;
  if (from == to) return std::vector<ChannelId>{};

  // Fast path: the deterministic XY route, whenever it survives.
  std::vector<ChannelId> xy = xy_route(mesh, from, to);
  if (faults.route_usable(mesh, xy)) return xy;

  // Fallback: BFS distances *to* `to` over the surviving graph (walking
  // channels backwards), then a forward walk from `from` that at every
  // router takes the lowest usable channel id still decreasing the
  // distance — the unique lexicographically-smallest shortest path.
  const int routers = mesh.router_count();
  const int channels = mesh.channel_count();
  std::vector<std::vector<ChannelId>> into(static_cast<std::size_t>(routers));
  std::vector<std::vector<ChannelId>> out_of(static_cast<std::size_t>(routers));
  for (ChannelId c = 0; c < channels; ++c) {
    if (!faults.channel_usable(mesh, c)) continue;
    into[static_cast<std::size_t>(mesh.channel_target(c))].push_back(c);
    out_of[static_cast<std::size_t>(mesh.channel_source(c))].push_back(c);
  }

  constexpr int kUnreached = -1;
  std::vector<int> dist(static_cast<std::size_t>(routers), kUnreached);
  dist[static_cast<std::size_t>(to)] = 0;
  std::deque<RouterId> queue{to};
  while (!queue.empty()) {
    const RouterId r = queue.front();
    queue.pop_front();
    for (ChannelId c : into[static_cast<std::size_t>(r)]) {
      const RouterId prev = mesh.channel_source(c);
      if (dist[static_cast<std::size_t>(prev)] != kUnreached) continue;
      dist[static_cast<std::size_t>(prev)] = dist[static_cast<std::size_t>(r)] + 1;
      queue.push_back(prev);
    }
  }
  if (dist[static_cast<std::size_t>(from)] == kUnreached) return std::nullopt;

  std::vector<ChannelId> route;
  route.reserve(static_cast<std::size_t>(dist[static_cast<std::size_t>(from)]));
  RouterId at = from;
  while (at != to) {
    ChannelId step = -1;
    for (ChannelId c : out_of[static_cast<std::size_t>(at)]) {  // ascending channel id
      const RouterId next = mesh.channel_target(c);
      if (dist[static_cast<std::size_t>(next)] == dist[static_cast<std::size_t>(at)] - 1) {
        step = c;
        break;
      }
    }
    NOCSCHED_ASSERT(step >= 0);  // dist[at] reachable => a decreasing edge exists
    route.push_back(step);
    at = mesh.channel_target(step);
  }
  return route;
}

FaultSet random_fault_scenario(const Mesh& mesh, std::span<const int> processor_ids, Rng& rng) {
  FaultSet faults;
  if (mesh.channel_count() > 0) {
    faults.fail_channel(
        static_cast<ChannelId>(rng.below(static_cast<std::uint64_t>(mesh.channel_count()))));
  }
  if (!processor_ids.empty() && rng.chance(0.5)) {
    faults.fail_processor(processor_ids[rng.below(processor_ids.size())]);
  }
  return faults;
}

}  // namespace nocsched::noc
