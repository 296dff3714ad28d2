#include "power/peak_sweep.hpp"

#include <algorithm>

namespace nocsched::power {

std::vector<Edge> sweep_edges(std::span<const Interval> spans) {
  std::vector<Edge> edges;
  sweep_edges(spans, edges);
  return edges;
}

void sweep_edges(std::span<const Interval> spans, std::vector<Edge>& out) {
  // A draw's two edges have different times, so (time, draw) is unique
  // and merging the sorted starts with the sorted ends gives the order
  // one sort of all edges would.  The starts go to [n, 2n) and the ends
  // to [2n, 3n) of `out`; the forward merge into [0, 2n) never
  // overtakes an unread start (it has written fewer edges than it has
  // read), so no second buffer is needed.
  auto before = [](const Edge& a, const Edge& b) {
    return a.time != b.time ? a.time < b.time : a.draw < b.draw;
  };
  std::size_t n = 0;
  for (const Interval& iv : spans) n += iv.empty() ? 0 : 1;
  out.resize(3 * n);
  const auto starts = out.begin() + static_cast<std::ptrdiff_t>(n);
  const auto ends = starts + static_cast<std::ptrdiff_t>(n);
  std::size_t k = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].empty()) continue;
    starts[static_cast<std::ptrdiff_t>(k)] = Edge{spans[i].start, i, 1.0};
    ends[static_cast<std::ptrdiff_t>(k)] = Edge{spans[i].end, i, -1.0};
    ++k;
  }
  // Plans list their sessions mostly by start, so the starts are often
  // in order already.
  if (!std::is_sorted(starts, ends, before)) std::sort(starts, ends, before);
  std::sort(ends, out.end(), before);
  auto a = starts;
  auto b = ends;
  auto to = out.begin();
  while (b != out.end()) *to++ = (a != ends && before(*a, *b)) ? *a++ : *b++;
  out.resize(2 * n);  // any starts left over are already in place
}

}  // namespace nocsched::power
