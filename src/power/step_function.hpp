#pragma once
// The earliest-completion planner's envelope (ablation A1): a
// piecewise-constant sum of interval draws, kept online while sessions
// are booked one by one anywhere on the timeline.  The kernel holds one
// for the summed session power and one per channel load (capacity 1.0;
// a circuit leg draws all of it), and asks where a window that
// overflows one can next start (skip_overflow).
// (First-available planning needs none: every breakpoint it books lies
// at a pass time, so it folds a pass ledger instead; core/scheduler.cpp.)
//
// The breakpoints are sorted, each with its summed delta and its level,
// the left fold of every delta up to it: the same doubles a
// std::map<time, delta> walk holds there, since the deltas landing at
// one instant are summed in call order before they reach the level.  An
// add only marks the levels after its start stale; the window query
// refolds them.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

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
    const std::size_t first = search(iv.start, /*strict=*/false);
    if (first < steps_.size() && steps_[first].time == iv.start) {
      steps_[first].delta += value;  // same-instant draws sum in call order
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

  /// The first start from iv.start on that a window of iv's length
  /// with `value` more is not yet known to overflow `limit`: iv.start
  /// when the level stays within_budget throughout `iv`, else the end of
  /// the run of overflowing levels that holds the last one inside `iv` —
  /// every earlier start keeps an overflowing level in its window.
  /// nullopt when that run never ends.  Repeating the jump from the
  /// returned start reaches the earliest fitting start without visiting
  /// each breakpoint.
  [[nodiscard]] std::optional<std::uint64_t> skip_overflow(const Interval& iv, double value,
                                                           double limit) {
    if (iv.empty()) return iv.start;
    refold();
    const auto overflows = [&](double level) { return !within_budget(level + value, limit); };
    // From the level steps_[j - 1] sets, past every overflowing level.
    const auto run_end = [&](std::size_t j) -> std::optional<std::uint64_t> {
      while (j < steps_.size() && overflows(steps_[j].level)) ++j;
      if (j == steps_.size()) return std::nullopt;
      return steps_[j].time;
    };
    // Levels strictly inside, last first, then the one holding at iv.start.
    const std::size_t first = search(iv.start, /*strict=*/true);
    for (std::size_t j = search(iv.end, /*strict=*/false); j-- > first;) {
      if (overflows(steps_[j].level)) return run_end(j + 1);
    }
    if (overflows(first == 0 ? 0.0 : steps_[first - 1].level)) return run_end(first);
    return iv.start;
  }

  /// The highest level reached (0 for an empty function).
  [[nodiscard]] double peak() const {
    double level = 0.0;
    double best = 0.0;
    for (const Step& s : steps_) {
      level = level + s.delta;
      if (level > best) best = level;
    }
    return best;
  }

  void clear() {
    steps_.clear();
    stale_ = 0;
  }

 private:
  struct Step {
    std::uint64_t time = 0;
    double delta = 0.0;  ///< summed draws starting (+) and ending (-) here
    double level = 0.0;  ///< the left fold of every delta up to this step (see stale_)
  };

  /// Brings every level up to date.
  void refold() {
    double level = stale_ == 0 ? 0.0 : steps_[stale_ - 1].level;
    for (; stale_ < steps_.size(); ++stale_) {
      level = level + steps_[stale_].delta;
      steps_[stale_].level = level;
    }
  }

  void insert(std::size_t i, const Step& step) {
    steps_.insert(steps_.begin() + static_cast<std::ptrdiff_t>(i), step);
  }

  /// Index of the first step whose time is not below `t` (`strict`:
  /// strictly after `t`), or steps_.size().
  [[nodiscard]] std::size_t search(std::uint64_t t, bool strict) const {
    const auto it = std::partition_point(steps_.begin(), steps_.end(), [t, strict](const Step& s) {
      return strict ? s.time <= t : s.time < t;
    });
    return static_cast<std::size_t>(it - steps_.begin());
  }

  std::vector<Step> steps_;  ///< sorted by time
  std::size_t stale_ = 0;    ///< levels of steps_[stale_..] are out of date
};

}  // namespace nocsched::power
