#pragma once
// Piecewise-constant power-over-time bookkeeping as a std::map of
// deltas — the test oracle for the production step functions
// (power::StepFunction, power::PeakSweep) and the reference planner's
// power and channel-load envelopes.
//
// Sessions contribute a constant power draw over their interval; the
// planner must know, before committing a session, whether the summed
// draw would exceed the budget anywhere inside the candidate interval.

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/interval_set.hpp"

namespace nocsched::power {

class PowerProfile {
 public:
  /// Add a constant draw of `value` power units over `iv` (no-op for an
  /// empty interval).  `value` must be finite and non-negative.
  void add(const Interval& iv, double value);

  /// Maximum summed draw over all time.
  [[nodiscard]] double peak() const;

  /// Maximum summed draw within `iv` (0 for an empty interval).
  [[nodiscard]] double max_in(const Interval& iv) const;

  /// Would adding `value` over `iv` keep the draw <= `limit` everywhere
  /// in `iv`?  (Equivalent to max_in(iv) + value <= limit, modulo
  /// floating-point tolerance.)
  [[nodiscard]] bool fits(const Interval& iv, double value, double limit) const;

  /// The profile as (time, level) steps, sorted by time; level holds
  /// from that time until the next step.  Starts at level 0.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, double>> steps() const;

  /// Power-time integral up to `horizon` (energy in model units).
  [[nodiscard]] double energy_until(std::uint64_t horizon) const;

  /// First breakpoint strictly after `t`, or nullopt when the profile
  /// never changes again (used to advance candidate start times when a
  /// power window does not fit).
  [[nodiscard]] std::optional<std::uint64_t> next_change_after(std::uint64_t t) const;

  void clear() { deltas_.clear(); }

 private:
  // time -> sum of deltas applied at that time.
  std::map<std::uint64_t, double> deltas_;
};

}  // namespace nocsched::power
