#include "power/peak_sweep.hpp"

#include <algorithm>

namespace nocsched::power {

std::vector<Edge> sweep_edges(std::span<const Interval> spans) {
  std::vector<Edge> edges;
  edges.reserve(2 * spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].empty()) continue;
    edges.push_back(Edge{spans[i].start, i, 1.0});
    edges.push_back(Edge{spans[i].end, i, -1.0});
  }
  // A draw's two edges have different times, so (time, draw) is unique.
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.time != b.time ? a.time < b.time : a.draw < b.draw;
  });
  return edges;
}

}  // namespace nocsched::power
