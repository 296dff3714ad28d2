#include "core/planner_state.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "power/profile.hpp"

namespace nocsched::core {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

// Identical to the tolerance in power/profile.cpp — the fits() answers
// must agree bit-for-bit with PowerProfile::fits.
double slack(double limit) { return 1e-9 * (std::abs(limit) + 1.0); }

}  // namespace

// ----- StepProfile --------------------------------------------------------

void StepProfile::add_delta(std::uint64_t t, double v) {
  const auto it = std::lower_bound(times_.begin(), times_.end(), t);
  const auto idx = static_cast<std::size_t>(it - times_.begin());
  if (it != times_.end() && *it == t) {
    // Same `+=` the map's operator[] path performs, in the same call
    // order, so the accumulated delta is the identical double.
    deltas_[idx] += v;
  } else {
    times_.insert(it, t);
    deltas_.insert(deltas_.begin() + static_cast<std::ptrdiff_t>(idx), v);
    levels_.insert(levels_.begin() + static_cast<std::ptrdiff_t>(idx), 0.0);
  }
  // Refold the running level from the edit point.  Each levels_[j] is
  // the left-associative sum of deltas_[0..j] — exactly the value the
  // map walk's `level += d` holds after breakpoint j — so recomputing
  // the suffix reproduces those doubles bit-for-bit.
  for (std::size_t j = idx; j < times_.size(); ++j) {
    levels_[j] = (j == 0 ? 0.0 : levels_[j - 1]) + deltas_[j];
  }
}

void StepProfile::add(const Interval& iv, double value) {
  power::require_valid_draw(value);
  if (iv.empty() || value == 0.0) return;
  add_delta(iv.start, value);
  add_delta(iv.end, -value);
}

double StepProfile::max_in(const Interval& iv) const {
  if (iv.empty()) return 0.0;
  // The map walk folds entries with time <= iv.start into the level at
  // iv.start, then maxes over entries strictly inside the window; with
  // levels_ precomputed both reduce to a max over levels_[r..s].
  const auto begin = times_.begin();
  const auto r = std::upper_bound(begin, times_.end(), iv.start) - begin;
  double best = (r == 0) ? 0.0 : levels_[static_cast<std::size_t>(r - 1)];
  const auto s = std::lower_bound(begin, times_.end(), iv.end) - begin;
  for (auto j = r; j < s; ++j) {
    const double level = levels_[static_cast<std::size_t>(j)];
    if (level > best) best = level;
  }
  return best;
}

bool StepProfile::fits(const Interval& iv, double value, double limit) const {
  if (iv.empty()) return true;
  return max_in(iv) + value <= limit + slack(limit);
}

bool StepProfile::fits_at(std::uint64_t t, double value, double limit) const {
  // Level at t: the same double max_in({t, t + dur}) returns when every
  // breakpoint after t only steps the level down (see header contract).
  const auto r = std::upper_bound(times_.begin(), times_.end(), t) - times_.begin();
  const double level = (r == 0) ? 0.0 : levels_[static_cast<std::size_t>(r - 1)];
  return level + value <= limit + slack(limit);
}

double StepProfile::peak() const {
  double best = 0.0;
  for (const double level : levels_) {
    if (level > best) best = level;
  }
  return best;
}

std::optional<std::uint64_t> StepProfile::next_change_after(std::uint64_t t) const {
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  if (it == times_.end()) return std::nullopt;
  return *it;
}

void StepProfile::clear() {
  times_.clear();
  deltas_.clear();
  levels_.clear();
}

// ----- PlannerState -------------------------------------------------------

void PlannerState::init(const SystemModel& sys) {
  const std::vector<Endpoint>& eps = sys.endpoints();
  circuit_ = sys.params().channel_model == ChannelModel::kCircuit;
  windows_ = sys.params().resource_choice == ResourceChoice::kEarliestCompletion;
  available_from_.assign(eps.size(), 0);
  for (std::size_t r = 0; r < eps.size(); ++r) {
    available_from_[r] = eps[r].is_processor() ? kNever : 0;
  }
  free_from_ = available_from_;
  busy_.resize(windows_ ? eps.size() : 0);
  for (IntervalSet& b : busy_) b.clear();
  const auto channels = static_cast<std::size_t>(sys.mesh().channel_count());
  if (circuit_) {
    channel_busy_.resize(windows_ ? channels : 0);
    for (IntervalSet& c : channel_busy_) c.clear();
    channel_free_from_.assign(channels, 0);
  } else {
    channel_load_.resize(channels);
    for (StepProfile& c : channel_load_) c.clear();
  }
  profile_.clear();
  ends_.clear();
}

bool PlannerState::resources_free(std::size_t s, std::size_t k, const Interval& iv) const {
  if (available_from_[s] > iv.start || busy_[s].conflicts(iv)) return false;
  if (k == s) return true;
  return available_from_[k] <= iv.start && !busy_[k].conflicts(iv);
}

bool PlannerState::paths_free(const SessionPlan& plan, const Interval& iv) const {
  if (circuit_) {
    for (const noc::ChannelId c : plan.path_in) {
      if (channel_busy_[static_cast<std::size_t>(c)].conflicts(iv)) return false;
    }
    for (const noc::ChannelId c : plan.path_out) {
      if (channel_busy_[static_cast<std::size_t>(c)].conflicts(iv)) return false;
    }
    return true;
  }
  for (const noc::ChannelId c : plan.path_in) {
    if (!channel_load_[static_cast<std::size_t>(c)].fits(iv, plan.bandwidth_in, 1.0)) {
      return false;
    }
  }
  for (const noc::ChannelId c : plan.path_out) {
    if (!channel_load_[static_cast<std::size_t>(c)].fits(iv, plan.bandwidth_out, 1.0)) {
      return false;
    }
  }
  return true;
}

bool PlannerState::paths_free_at(const SessionPlan& plan, std::uint64_t t) const {
  if (circuit_) {
    // A circuit channel's reservations all start at or before t, so it
    // conflicts with [t, t + dur) iff its latest reservation is still
    // open at t — the maintained free-from scalar.
    for (const noc::ChannelId c : plan.path_in) {
      if (channel_free_from_[static_cast<std::size_t>(c)] > t) return false;
    }
    for (const noc::ChannelId c : plan.path_out) {
      if (channel_free_from_[static_cast<std::size_t>(c)] > t) return false;
    }
    return true;
  }
  for (const noc::ChannelId c : plan.path_in) {
    if (!channel_load_[static_cast<std::size_t>(c)].fits_at(t, plan.bandwidth_in, 1.0)) {
      return false;
    }
  }
  for (const noc::ChannelId c : plan.path_out) {
    if (!channel_load_[static_cast<std::size_t>(c)].fits_at(t, plan.bandwidth_out, 1.0)) {
      return false;
    }
  }
  return true;
}

std::optional<std::uint64_t> PlannerState::next_end_after(std::uint64_t t) const {
  const auto it = std::upper_bound(ends_.begin(), ends_.end(), t);
  if (it == ends_.end()) return std::nullopt;
  return *it;
}

std::uint64_t PlannerState::circuit_earliest_path_fit(std::span<const noc::ChannelId> path,
                                                      std::uint64_t from,
                                                      std::uint64_t len) const {
  // Fixed point over the path's channels: bump past any reservation
  // that overlaps the window until no channel moves it.
  std::uint64_t t = from;
  bool moved = true;
  while (moved) {
    moved = false;
    for (const noc::ChannelId c : path) {
      const std::uint64_t fit = channel_busy_[static_cast<std::size_t>(c)].earliest_fit(t, len);
      if (fit != t) {
        t = fit;
        moved = true;
      }
    }
  }
  return t;
}

std::optional<std::uint64_t> PlannerState::load_next_change_after(
    std::span<const noc::ChannelId> path, std::uint64_t t) const {
  std::optional<std::uint64_t> best;
  for (const noc::ChannelId c : path) {
    const auto n = channel_load_[static_cast<std::size_t>(c)].next_change_after(t);
    if (n && (!best || *n < *best)) best = n;
  }
  return best;
}

std::uint64_t PlannerState::avail_mask(std::uint64_t t) const {
  std::uint64_t mask = 0;
  const std::size_t n = std::min<std::size_t>(free_from_.size(), 64);
  for (std::size_t r = 0; r < n; ++r) {
    if (free_from_[r] <= t) mask |= std::uint64_t{1} << r;
  }
  return mask;
}

void PlannerState::commit_session(std::size_t source, std::size_t sink, const Interval& iv,
                                  const SessionPlan& plan, std::size_t proc_resource) {
  if (windows_) {
    busy_[source].insert(iv);
    if (sink != source) busy_[sink].insert(iv);
  }
  if (free_from_[source] < iv.end) free_from_[source] = iv.end;
  if (free_from_[sink] < iv.end) free_from_[sink] = iv.end;
  if (circuit_) {
    const auto reserve = [&](std::span<const noc::ChannelId> path) {
      for (const noc::ChannelId c : path) {
        if (windows_) channel_busy_[static_cast<std::size_t>(c)].insert(iv);
        auto& free_from = channel_free_from_[static_cast<std::size_t>(c)];
        if (free_from < iv.end) free_from = iv.end;
      }
    };
    reserve(plan.path_in);
    reserve(plan.path_out);
  } else {
    for (const noc::ChannelId c : plan.path_in) {
      channel_load_[static_cast<std::size_t>(c)].add(iv, plan.bandwidth_in);
    }
    for (const noc::ChannelId c : plan.path_out) {
      channel_load_[static_cast<std::size_t>(c)].add(iv, plan.bandwidth_out);
    }
  }
  profile_.add(iv, plan.power);
  const auto it = std::upper_bound(ends_.begin(), ends_.end(), iv.end);
  ends_.insert(it, iv.end);
  if (proc_resource != npos) {
    available_from_[proc_resource] = iv.end;
    // The processor had no sessions of its own yet (free_from was
    // kNever), so its frontier is its fresh availability.
    free_from_[proc_resource] = iv.end;
  }
}

}  // namespace nocsched::core
