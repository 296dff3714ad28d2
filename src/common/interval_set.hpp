#pragma once
// Sorted set of disjoint half-open time intervals [start, end).
//
// Used for endpoint bookings: a test session holds its source and sink
// for its whole duration, and the earliest-completion planner, the
// validator and the replay cross-check must query conflicts cheaply.
// The validator also books each directed channel a circuit session
// holds here.

#include <cstdint>
#include <vector>

namespace nocsched {

/// Half-open interval of simulation cycles.
struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;  // exclusive; must satisfy end >= start

  [[nodiscard]] bool empty() const { return end <= start; }
  [[nodiscard]] std::uint64_t length() const { return end - start; }
  [[nodiscard]] bool overlaps(const Interval& o) const {
    return start < o.end && o.start < end;
  }
  friend bool operator==(const Interval&, const Interval&) = default;
};

/// Maintains disjoint intervals sorted by start time.
///
/// Insertion of an overlapping interval is rejected (the caller must
/// query first); adjacent intervals are kept separate so the number of
/// distinct reservations stays observable for utilization statistics.
class IntervalSet {
 public:
  /// True if `iv` overlaps any stored interval.
  [[nodiscard]] bool conflicts(const Interval& iv) const;

  /// Insert a non-empty interval; throws nocsched::Error on overlap.
  void insert(const Interval& iv);

  /// Earliest time >= `from` at which an interval of length `len` fits.
  [[nodiscard]] std::uint64_t earliest_fit(std::uint64_t from, std::uint64_t len) const;

  [[nodiscard]] std::size_t size() const { return ivs_.size(); }
  [[nodiscard]] bool empty() const { return ivs_.empty(); }
  [[nodiscard]] const std::vector<Interval>& intervals() const { return ivs_; }
  void clear() { ivs_.clear(); }

 private:
  std::vector<Interval> ivs_;  // sorted by start, pairwise disjoint
};

}  // namespace nocsched
