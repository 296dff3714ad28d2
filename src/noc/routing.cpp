#include "noc/routing.hpp"

#include <cstdlib>

namespace nocsched::noc {

std::vector<ChannelId> xy_route(const Mesh& mesh, RouterId from, RouterId to) {
  std::vector<ChannelId> route;
  xy_route(mesh, from, to, route);
  return route;
}

void xy_route(const Mesh& mesh, RouterId from, RouterId to, std::vector<ChannelId>& out) {
  const Coord src = mesh.coord_of(from);
  const Coord dst = mesh.coord_of(to);
  out.clear();
  out.reserve(static_cast<std::size_t>(std::abs(dst.x - src.x) + std::abs(dst.y - src.y)));
  // Both ends are on the grid, so every step lands on a neighbour.
  RouterId at = from;
  const int sx = dst.x > src.x ? 1 : -1;
  for (int x = src.x; x != dst.x; x += sx) {
    out.push_back(mesh.channel_between(at, at + sx));
    at += sx;
  }
  const int sy = dst.y > src.y ? 1 : -1;
  const int row = sy * mesh.cols();
  for (int y = src.y; y != dst.y; y += sy) {
    out.push_back(mesh.channel_between(at, at + row));
    at += row;
  }
}

}  // namespace nocsched::noc
