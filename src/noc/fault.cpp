#include "noc/fault.hpp"

#include <algorithm>

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

std::string FaultSet::describe() const {
  return cat("links ", braces(channels_), ", routers ", braces(routers_), ", procs ",
             braces(processors_));
}

FaultRouter::FaultRouter(const Mesh& mesh, const FaultSet& faults)
    : mesh_(mesh), faults_(faults) {
  if (faults.failed_channels().empty() && faults.failed_routers().empty()) return;
  usable_.resize(static_cast<std::size_t>(mesh.channel_count()));
  for (ChannelId c = 0; c < mesh.channel_count(); ++c) {
    usable_[static_cast<std::size_t>(c)] = faults.channel_usable(mesh, c) ? 1 : 0;
  }
}

bool FaultRouter::channel_usable(ChannelId c) const {
  if (c < 0 || c >= mesh_.channel_count()) (void)mesh_.channel_source(c);  // throws
  return usable_.empty() || usable_[static_cast<std::size_t>(c)] != 0;
}

bool FaultRouter::usable(std::span<const ChannelId> path) const {
  if (usable_.empty()) return true;  // no channel or router is down
  for (ChannelId c : path) {
    if (!channel_usable(c)) return false;
  }
  return true;
}

const int* FaultRouter::distances_to(RouterId to) {
  const int routers = mesh_.router_count();
  const auto n = static_cast<std::size_t>(routers);
  if (field_of_.empty()) {
    // First broken XY route: the surviving adjacency, once.  Scanning
    // channels in ascending id keeps every router's list ascending.
    const int channels = mesh_.channel_count();
    into_begin_.assign(n + 1, 0);
    out_begin_.assign(n + 1, 0);
    for (ChannelId c = 0; c < channels; ++c) {
      if (!channel_usable(c)) continue;
      ++into_begin_[static_cast<std::size_t>(mesh_.channel_target(c)) + 1];
      ++out_begin_[static_cast<std::size_t>(mesh_.channel_source(c)) + 1];
    }
    for (std::size_t r = 0; r < n; ++r) {
      into_begin_[r + 1] += into_begin_[r];
      out_begin_[r + 1] += out_begin_[r];
    }
    into_.resize(static_cast<std::size_t>(into_begin_[n]));
    out_.resize(static_cast<std::size_t>(out_begin_[n]));
    std::vector<int> into_at(into_begin_.begin(), into_begin_.end() - 1);
    std::vector<int> out_at(out_begin_.begin(), out_begin_.end() - 1);
    for (ChannelId c = 0; c < channels; ++c) {
      if (!channel_usable(c)) continue;
      const int in_slot = into_at[static_cast<std::size_t>(mesh_.channel_target(c))]++;
      const int out_slot = out_at[static_cast<std::size_t>(mesh_.channel_source(c))]++;
      into_[static_cast<std::size_t>(in_slot)] = c;
      out_[static_cast<std::size_t>(out_slot)] = c;
    }
    field_of_.assign(n, -1);
    queue_.resize(n);
  }
  int& slot = field_of_[static_cast<std::size_t>(to)];
  if (slot >= 0) return fields_.data() + slot;

  // BFS distances *to* `to` over the surviving graph, walking channels
  // backwards.  Each router is queued at most once, so the queue is a
  // flat array read front to back.
  slot = static_cast<int>(fields_.size());
  fields_.resize(fields_.size() + n, -1);
  int* dist = fields_.data() + slot;
  dist[to] = 0;
  queue_[0] = to;
  for (std::size_t head = 0, tail = 1; head < tail; ++head) {
    const RouterId r = queue_[head];
    for (int i = into_begin_[static_cast<std::size_t>(r)];
         i < into_begin_[static_cast<std::size_t>(r) + 1]; ++i) {
      const RouterId prev = mesh_.channel_source(into_[static_cast<std::size_t>(i)]);
      if (dist[prev] >= 0) continue;
      dist[prev] = dist[r] + 1;
      queue_[tail++] = prev;
    }
  }
  return dist;
}

std::optional<std::vector<ChannelId>> FaultRouter::route(RouterId from, RouterId to) {
  if (faults_.router_failed(from) || faults_.router_failed(to)) return std::nullopt;
  if (from == to) return std::vector<ChannelId>{};

  // Fast path: the deterministic XY route, whenever it survives.
  std::vector<ChannelId> xy = xy_route(mesh_, from, to);
  if (usable(xy)) return xy;

  // Fallback: a forward walk from `from` that at every router takes the
  // lowest usable channel id still decreasing the distance to `to` —
  // the unique lexicographically-smallest shortest path.
  const int* dist = distances_to(to);
  if (dist[from] < 0) return std::nullopt;
  std::vector<ChannelId> route;
  route.reserve(static_cast<std::size_t>(dist[from]));
  RouterId at = from;
  while (at != to) {
    ChannelId step = -1;
    for (int i = out_begin_[static_cast<std::size_t>(at)];
         i < out_begin_[static_cast<std::size_t>(at) + 1]; ++i) {  // ascending channel id
      const ChannelId c = out_[static_cast<std::size_t>(i)];
      if (dist[mesh_.channel_target(c)] == dist[at] - 1) {
        step = c;
        break;
      }
    }
    NOCSCHED_ASSERT(step >= 0);  // dist[at] reachable => a decreasing edge exists
    route.push_back(step);
    at = mesh_.channel_target(step);
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
