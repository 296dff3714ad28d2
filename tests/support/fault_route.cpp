#include "support/fault_route.hpp"

#include <deque>

#include "common/error.hpp"
#include "noc/routing.hpp"

namespace nocsched::noc {

std::optional<std::vector<ChannelId>> reference_fault_route(const Mesh& mesh,
                                                            const FaultSet& faults,
                                                            RouterId from, RouterId to) {
  if (faults.router_failed(from) || faults.router_failed(to)) return std::nullopt;
  if (from == to) return std::vector<ChannelId>{};

  std::vector<ChannelId> xy = xy_route(mesh, from, to);
  bool xy_survives = true;
  for (ChannelId c : xy) xy_survives = xy_survives && faults.channel_usable(mesh, c);
  if (xy_survives) return xy;

  // BFS distances *to* `to` over the surviving graph (walking channels
  // backwards), then a forward walk from `from` that at every router
  // takes the lowest usable channel id still decreasing the distance.
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
    NOCSCHED_ASSERT(step >= 0);
    route.push_back(step);
    at = mesh.channel_target(step);
  }
  return route;
}

}  // namespace nocsched::noc
