#include "support/power_profile.hpp"

#include <cmath>

#include "power/budget.hpp"

namespace nocsched::power {

namespace {
// The oracle's own copy of power::within_budget's tolerance, kept
// separate so the production predicate is checked, not shared.
double slack(double limit) { return 1e-9 * (std::abs(limit) + 1.0); }
}  // namespace

void PowerProfile::add(const Interval& iv, double value) {
  require_valid_draw(value);
  if (iv.empty() || value == 0.0) return;
  deltas_[iv.start] += value;
  deltas_[iv.end] -= value;
}

double PowerProfile::peak() const {
  double level = 0.0;
  double best = 0.0;
  for (const auto& [t, d] : deltas_) {
    level += d;
    if (level > best) best = level;
  }
  return best;
}

double PowerProfile::max_in(const Interval& iv) const {
  if (iv.empty()) return 0.0;
  // Level holding at iv.start, then sweep breakpoints inside the window.
  double level = 0.0;
  auto it = deltas_.begin();
  for (; it != deltas_.end() && it->first <= iv.start; ++it) level += it->second;
  double best = level;
  for (; it != deltas_.end() && it->first < iv.end; ++it) {
    level += it->second;
    if (level > best) best = level;
  }
  return best;
}

bool PowerProfile::fits(const Interval& iv, double value, double limit) const {
  if (iv.empty()) return true;
  return max_in(iv) + value <= limit + slack(limit);
}

std::vector<std::pair<std::uint64_t, double>> PowerProfile::steps() const {
  std::vector<std::pair<std::uint64_t, double>> out;
  double level = 0.0;
  for (const auto& [t, d] : deltas_) {
    level += d;
    out.emplace_back(t, level);
  }
  return out;
}

std::optional<std::uint64_t> PowerProfile::next_change_after(std::uint64_t t) const {
  const auto it = deltas_.upper_bound(t);
  if (it == deltas_.end()) return std::nullopt;
  return it->first;
}

double PowerProfile::energy_until(std::uint64_t horizon) const {
  double energy = 0.0;
  double level = 0.0;
  std::uint64_t prev = 0;
  for (const auto& [t, d] : deltas_) {
    const std::uint64_t clamped = t < horizon ? t : horizon;
    if (clamped > prev) energy += level * static_cast<double>(clamped - prev);
    prev = clamped;
    level += d;
    if (t >= horizon) break;
  }
  return energy;
}

}  // namespace nocsched::power
