#pragma once
// The planner's envelope: a piecewise-constant sum of interval draws,
// kept online while sessions are booked one by one.  The kernel holds
// one for the summed session power and one per multiplexed channel
// (capacity 1.0).
//
// The breakpoints are sorted, each with its summed delta and its level,
// the left fold of every delta up to it: the same doubles a
// std::map<time, delta> walk holds there, since the deltas landing at
// one instant are summed in call order before they reach the level.  An
// add only marks the levels after its start stale; the window query
// refolds them.  Two query patterns share the type.  Earliest-completion
// planning asks window fits and next breakpoints anywhere on the
// timeline (fits, next_change_after).  First-available planning only
// ever asks at the current pass time, which never decreases (fits_at):
// that moves a floor up to the pass time, and the steps behind it fold
// into one level and a running peak and leave the search range, so its
// adds and queries touch a handful of steps and never a stale level.
// Queries and adds must not reach behind the floor, which stays at 0
// when fits_at is never called.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/interval_set.hpp"
#include "power/budget.hpp"

namespace nocsched::power {

class StepFunction {
 public:
  /// Adds a constant draw of `value` over `iv` (a no-op for an empty
  /// interval or a zero draw).  `value` must be finite and non-negative
  /// (require_valid_draw).
  void add(const Interval& iv, double value) {
    require_valid_draw(value);
    if (iv.empty() || value == 0.0) return;
    NOCSCHED_ASSERT(iv.start >= floor_);
    // A start at the floor (first-available planning) needs no search;
    // only a start past the first step ahead does.
    std::size_t first = head_;
    if (first < steps_.size() && steps_[first].time < iv.start) {
      first = search(iv.start, /*strict=*/false);
    }
    if (first < steps_.size() && steps_[first].time == iv.start) {
      steps_[first].delta += value;  // same-instant draws sum in call order
    } else if (first == head_ && head_ > 0) {
      steps_[--head_] = Step{iv.start, value, 0.0};  // reuse the newest slot behind the floor
      first = head_;
    } else {
      insert(first, Step{iv.start, value, 0.0});
    }
    // The end, by a scan back from the tail: it passes no more steps than
    // the next refold visits.  It stops past `first`, whose time is
    // iv.start < iv.end.
    std::size_t last = steps_.size();
    while (steps_[last - 1].time > iv.end) --last;
    if (steps_[last - 1].time == iv.end) {
      steps_[last - 1].delta -= value;
    } else {
      insert(last, Step{iv.end, -value, 0.0});
    }
    stale_ = std::min(stale_, first);  // only the levels from the start on moved
  }

  /// Would `value` more over `iv` keep the level within_budget of
  /// `limit` throughout `iv`?  An empty window always fits.
  [[nodiscard]] bool fits(const Interval& iv, double value, double limit) {
    if (iv.empty()) return true;
    NOCSCHED_ASSERT(iv.start >= floor_);
    refold();
    // The level holding at iv.start, then every level strictly inside.
    std::size_t j = search(iv.start, /*strict=*/true);
    double best = j == head_ ? level_ : steps_[j - 1].level;
    for (; j < steps_.size() && steps_[j].time < iv.end; ++j) {
      if (steps_[j].level > best) best = steps_[j].level;
    }
    return within_budget(best + value, limit);
  }

  /// First breakpoint strictly after `t`, or nullopt when the level
  /// never changes again.
  [[nodiscard]] std::optional<std::uint64_t> next_change_after(std::uint64_t t) const {
    NOCSCHED_ASSERT(t >= floor_);
    const std::size_t j = search(t, /*strict=*/true);
    if (j == steps_.size()) return std::nullopt;
    return steps_[j].time;
  }

  /// Would `value` more keep the level at `t` within_budget of `limit`?
  /// When every booked draw starts at or before `t`, each breakpoint
  /// after `t` lowers the level, so this is fits({t, t + d}, ...) for
  /// every d > 0.  Moves the floor to `t`; `t` must not decrease.
  [[nodiscard]] bool fits_at(std::uint64_t t, double value, double limit) {
    advance(t);
    const double level =
        (head_ < steps_.size() && steps_[head_].time == t) ? level_ + steps_[head_].delta : level_;
    return within_budget(level + value, limit);
  }

  /// The highest level reached (0 for an empty function).
  [[nodiscard]] double peak() const {
    double level = level_;
    double best = peak_;
    for (std::size_t j = head_; j < steps_.size(); ++j) {
      level = level + steps_[j].delta;
      if (level > best) best = level;
    }
    return best;
  }

  void clear() {
    steps_.clear();
    head_ = 0;
    stale_ = 0;
    floor_ = 0;
    level_ = 0.0;
    peak_ = 0.0;
  }

 private:
  struct Step {
    std::uint64_t time = 0;
    double delta = 0.0;  ///< summed draws starting (+) and ending (-) here
    double level = 0.0;  ///< the left fold of every delta up to this step (see stale_)
  };

  /// Moves the floor to `t`, folding every step before it.
  void advance(std::uint64_t t) {
    NOCSCHED_ASSERT(t >= floor_);
    floor_ = t;
    while (head_ < steps_.size() && steps_[head_].time < t) {
      level_ = level_ + steps_[head_].delta;
      if (level_ > peak_) peak_ = level_;
      ++head_;
    }
    if (head_ == steps_.size()) {
      steps_.clear();
      head_ = 0;
      stale_ = 0;
    } else {
      stale_ = std::max(stale_, head_);
    }
  }

  /// Brings every level past the floor up to date.
  void refold() {
    double level = stale_ == head_ ? level_ : steps_[stale_ - 1].level;
    for (; stale_ < steps_.size(); ++stale_) {
      level = level + steps_[stale_].delta;
      steps_[stale_].level = level;
    }
  }

  void insert(std::size_t i, const Step& step) {
    steps_.insert(steps_.begin() + static_cast<std::ptrdiff_t>(i), step);
  }

  /// Index of the first step past the floor whose time is not below
  /// `t` (`strict`: strictly after `t`), or steps_.size().
  [[nodiscard]] std::size_t search(std::uint64_t t, bool strict) const {
    const auto it = std::partition_point(
        steps_.begin() + static_cast<std::ptrdiff_t>(head_), steps_.end(),
        [t, strict](const Step& s) { return strict ? s.time <= t : s.time < t; });
    return static_cast<std::size_t>(it - steps_.begin());
  }

  std::vector<Step> steps_;  ///< sorted by time; [0, head_) lie behind the floor
  std::size_t head_ = 0;
  std::size_t stale_ = 0;  ///< levels of steps_[stale_..] are out of date
  std::uint64_t floor_ = 0;
  double level_ = 0.0;  ///< the level just before steps_[head_]
  double peak_ = 0.0;   ///< max(0, every level behind the floor)
};

}  // namespace nocsched::power
