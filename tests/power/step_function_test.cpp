// power::StepFunction and power::PeakSweep against the map-based
// PowerProfile oracle (tests/support): every level, peak and fit must be
// the identical double or answer, so the comparisons are exact (==),
// never EXPECT_NEAR.  The draws land on a coarse time grid, so many
// share an instant, and their values are non-dyadic, so the order the
// same-instant deltas are summed in changes the rounding.

#include "power/step_function.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "power/peak_sweep.hpp"
#include "support/power_profile.hpp"

namespace nocsched::power {
namespace {

/// A draw that is zero one time in eight, otherwise k / 7 for k in
/// [1, 1000].
double random_draw(Rng& rng) {
  if (rng.below(8) == 0) return 0.0;
  return static_cast<double>(1 + rng.below(1000)) / 7.0;
}

/// Limits around the point where `level + value` stops fitting: the
/// answer flips inside this set, so a level one ulp off shows.
std::vector<double> edge_limits(double level, double value) {
  const double sum = level + value;
  const double edge = (sum - 1e-9) / (1.0 + 1e-9);
  std::vector<double> out = {sum, sum * 0.5, sum * 2.0, 0.0};
  double below = edge;
  double above = edge;
  for (int k = 0; k < 4; ++k) {
    out.push_back(below);
    out.push_back(above);
    below = std::nextafter(below, -1.0);
    above = std::nextafter(above, std::numeric_limits<double>::infinity());
  }
  return out;
}

std::string add_error(double value) {
  StepFunction f;
  try {
    f.add({0, 10}, value);
  } catch (const Error& e) {
    return e.what();
  }
  return "<no throw>";
}

TEST(StepFunction, EmptyFunction) {
  StepFunction f;
  EXPECT_EQ(f.peak(), 0.0);
  EXPECT_TRUE(f.fits({0, 100}, 5.0, 5.0));
  EXPECT_FALSE(f.next_change_after(0).has_value());
}

TEST(StepFunction, WindowFitsSeeTheLevelCarriedIn) {
  StepFunction f;
  f.add({0, 100}, 3.0);
  f.add({50, 150}, 4.0);
  EXPECT_EQ(f.peak(), 7.0);
  EXPECT_TRUE(f.fits({0, 50}, 2.0, 5.0));     // exactly at the limit
  EXPECT_FALSE(f.fits({40, 60}, 2.0, 5.0));   // 7 inside the window
  EXPECT_TRUE(f.fits({120, 130}, 1.0, 5.0));  // no breakpoint inside, level 4
  EXPECT_TRUE(f.fits({150, 200}, 5.0, 5.0));
  EXPECT_TRUE(f.fits({60, 60}, 100.0, 1.0));  // an empty window fits anything
  EXPECT_EQ(f.next_change_after(0), std::optional<std::uint64_t>(50));
  EXPECT_EQ(f.next_change_after(100), std::optional<std::uint64_t>(150));
  EXPECT_EQ(f.next_change_after(150), std::nullopt);
}

TEST(StepFunction, FitsAtReadsTheLevelAtThePassTime) {
  StepFunction f;
  EXPECT_TRUE(f.fits_at(0, 4.0, 4.0));
  f.add({0, 10}, 3.0);
  EXPECT_FALSE(f.fits_at(0, 2.0, 4.0));
  EXPECT_TRUE(f.fits_at(0, 1.0, 4.0));
  EXPECT_TRUE(f.fits_at(10, 4.0, 4.0));  // the draw ended at 10
  f.add({10, 20}, 1.0);
  EXPECT_FALSE(f.fits_at(10, 3.5, 4.0));
  EXPECT_EQ(f.peak(), 3.0);  // the folded past still counts
  f.clear();
  EXPECT_EQ(f.peak(), 0.0);
  EXPECT_TRUE(f.fits_at(0, 4.0, 4.0));  // clear() resets the floor too
}

TEST(StepFunction, EmptyIntervalAndZeroDrawAreNoops) {
  StepFunction f;
  f.add({5, 5}, 10.0);
  f.add({0, 10}, 0.0);
  EXPECT_EQ(f.peak(), 0.0);
  EXPECT_FALSE(f.next_change_after(0).has_value());
}

TEST(StepFunction, RejectsBadDrawsWithTheSharedText) {
  EXPECT_EQ(add_error(std::numeric_limits<double>::quiet_NaN()),
            "PowerProfile: bad power value nan");
  EXPECT_EQ(add_error(-1.0), "PowerProfile: bad power value -1");
  EXPECT_EQ(add_error(std::numeric_limits<double>::infinity()),
            "PowerProfile: bad power value inf");
}

// Earliest-completion pattern: adds anywhere on the timeline,
// interleaved with window fits and next-breakpoint queries.
TEST(StepFunctionProperty, WindowQueriesMatchTheMapOracle) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    StepFunction f;
    PowerProfile oracle;
    const int adds = 5 + static_cast<int>(rng.below(40));
    for (int i = 0; i < adds; ++i) {
      const std::uint64_t start = 5 * rng.below(30);
      const std::uint64_t len = rng.below(8) == 0 ? 0 : 5 * (1 + rng.below(10));
      const double value = random_draw(rng);
      f.add({start, start + len}, value);
      oracle.add({start, start + len}, value);
      ASSERT_EQ(f.peak(), oracle.peak()) << "seed " << seed << " add " << i;
      for (int q = 0; q < 4; ++q) {
        const std::uint64_t a = rng.below(220);
        const Interval iv{a, a + rng.below(40)};
        const double v = random_draw(rng);
        for (const double limit : edge_limits(oracle.max_in(iv), v)) {
          ASSERT_EQ(f.fits(iv, v, limit), oracle.fits(iv, v, limit))
              << "seed " << seed << " window [" << iv.start << ", " << iv.end << ") limit "
              << limit;
        }
        ASSERT_EQ(f.next_change_after(a), oracle.next_change_after(a));
      }
    }
  }
}

// First-available pattern: the pass time never decreases, every add
// starts at it, and fits_at there must answer what the oracle's window
// check from it does; window queries past the floor still hold.
TEST(StepFunctionProperty, PassTimeQueriesMatchTheMapOracle) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 7919);
    StepFunction f;
    PowerProfile oracle;
    std::uint64_t t = 0;
    for (int pass = 0; pass < 40; ++pass) {
      const int steps = static_cast<int>(rng.below(5));
      for (int k = 0; k < steps; ++k) {
        const double v = random_draw(rng);
        const Interval window{t, t + 1 + rng.below(60)};
        for (const double limit : edge_limits(oracle.max_in(window), v)) {
          ASSERT_EQ(f.fits_at(t, v, limit), oracle.fits(window, v, limit))
              << "seed " << seed << " t " << t << " limit " << limit;
        }
        if (rng.chance(0.7)) {
          const std::uint64_t len = rng.below(8) == 0 ? 0 : 1 + 3 * rng.below(20);
          f.add({t, t + len}, v);
          oracle.add({t, t + len}, v);
        }
      }
      const std::uint64_t a = t + rng.below(30);
      const Interval ahead{a, a + rng.below(30)};
      const double v = random_draw(rng);
      for (const double limit : edge_limits(oracle.max_in(ahead), v)) {
        ASSERT_EQ(f.fits(ahead, v, limit), oracle.fits(ahead, v, limit));
      }
      ASSERT_EQ(f.next_change_after(a), oracle.next_change_after(a));
      ASSERT_EQ(f.peak(), oracle.peak()) << "seed " << seed << " pass " << pass;
      t += rng.below(4) == 0 ? 0 : 1 + 3 * rng.below(10);
    }
  }
}

// The checkers' sweep: per lane, the oracle fed the draws in index
// order.  Zero draws are booked too, to show they change nothing.
TEST(PeakSweepProperty, PeaksMatchTheMapOracle) {
  constexpr std::size_t kLanes = 4;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 104729);
    const std::size_t draws = rng.below(60);
    std::vector<Interval> spans;
    std::vector<std::vector<double>> values;  // per draw, per lane (NaN: lane unloaded)
    for (std::size_t i = 0; i < draws; ++i) {
      const std::uint64_t start = 4 * rng.below(25);
      const std::uint64_t len = rng.below(8) == 0 ? 0 : 4 * (1 + rng.below(8));
      spans.push_back({start, start + len});
      std::vector<double> per_lane(kLanes, std::numeric_limits<double>::quiet_NaN());
      for (double& v : per_lane) {
        if (rng.chance(0.6)) v = random_draw(rng);
      }
      values.push_back(per_lane);
    }
    std::vector<PowerProfile> oracle(kLanes);
    for (std::size_t i = 0; i < draws; ++i) {
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        if (!std::isnan(values[i][lane])) oracle[lane].add(spans[i], values[i][lane]);
      }
    }
    PeakSweep sweep(kLanes);
    for (const Edge& e : sweep_edges(spans)) {
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        if (!std::isnan(values[e.draw][lane])) sweep.add(lane, e, values[e.draw][lane]);
      }
    }
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      ASSERT_EQ(sweep.peak(lane), oracle[lane].peak()) << "seed " << seed << " lane " << lane;
    }
  }
}

TEST(PeakSweep, EdgesRunInTimeThenDrawOrderAndSkipEmptySpans) {
  const std::vector<Interval> spans = {{5, 9}, {3, 3}, {0, 5}, {5, 7}};
  std::vector<std::pair<std::uint64_t, std::size_t>> order;
  for (const Edge& e : sweep_edges(spans)) {
    order.emplace_back(e.time, e.draw);
    EXPECT_EQ(e.sign, e.time == spans[e.draw].start ? 1.0 : -1.0);
  }
  const std::vector<std::pair<std::uint64_t, std::size_t>> want = {
      {0, 2}, {5, 0}, {5, 2}, {5, 3}, {7, 3}, {9, 0}};
  EXPECT_EQ(order, want);
}

}  // namespace
}  // namespace nocsched::power
