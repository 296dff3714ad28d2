#include "common/interval_set.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace nocsched {

namespace {

// First stored interval whose end is after `t` (candidate for overlap).
auto first_ending_after(const std::vector<Interval>& ivs, std::uint64_t t) {
  return std::partition_point(ivs.begin(), ivs.end(),
                              [t](const Interval& iv) { return iv.end <= t; });
}

}  // namespace

bool IntervalSet::conflicts(const Interval& iv) const {
  if (iv.empty()) return false;
  const auto it = first_ending_after(ivs_, iv.start);
  return it != ivs_.end() && it->start < iv.end;
}

void IntervalSet::insert(const Interval& iv) {
  ensure(!iv.empty(), "IntervalSet::insert: empty interval [", iv.start, ", ", iv.end, ")");
  const auto it = first_ending_after(ivs_, iv.start);
  ensure(it == ivs_.end() || it->start >= iv.end,
         "IntervalSet::insert: [", iv.start, ", ", iv.end, ") overlaps [",
         it == ivs_.end() ? 0 : it->start, ", ", it == ivs_.end() ? 0 : it->end, ")");
  ivs_.insert(it, iv);
}

std::uint64_t IntervalSet::earliest_fit(std::uint64_t from, std::uint64_t len) const {
  if (len == 0) return from;
  std::uint64_t t = from;
  for (auto it = first_ending_after(ivs_, t); it != ivs_.end(); ++it) {
    if (it->start >= t && it->start - t >= len) return t;  // gap before *it fits
    if (it->end > t) t = it->end;
  }
  return t;
}

}  // namespace nocsched
