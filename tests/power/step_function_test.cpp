// power::StepFunction and power::PeakSweep against the map-based
// PowerProfile oracle (tests/support): every level, peak and fit must be
// the identical double or answer, so the comparisons are exact (==),
// never EXPECT_NEAR.  The draws land on a coarse time grid, so many
// share an instant, and their values are non-dyadic, so the order the
// same-instant deltas are summed in changes the rounding.

#include "power/step_function.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
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
  EXPECT_EQ(f.skip_overflow({0, 100}, 5.0, 5.0), 0u);         // fits: stays
  EXPECT_EQ(f.skip_overflow({0, 100}, 6.0, 5.0), std::nullopt);  // never fits
}

TEST(StepFunction, WindowFitsSeeTheLevelCarriedIn) {
  StepFunction f;
  f.add({0, 100}, 3.0);
  f.add({50, 150}, 4.0);
  EXPECT_EQ(f.peak(), 7.0);
  EXPECT_EQ(f.skip_overflow({0, 50}, 2.0, 5.0), 0u);       // exactly at the limit
  EXPECT_EQ(f.skip_overflow({120, 130}, 1.0, 5.0), 120u);  // no breakpoint inside, level 4
  EXPECT_EQ(f.skip_overflow({150, 200}, 5.0, 5.0), 150u);
  EXPECT_EQ(f.skip_overflow({60, 60}, 100.0, 1.0), 60u);  // an empty window fits anything
  // 7 inside the window overflows; so does the 4 after it with 2 more,
  // not with 1 more.
  EXPECT_EQ(f.skip_overflow({40, 60}, 2.0, 5.0), 150u);
  EXPECT_EQ(f.skip_overflow({40, 60}, 1.0, 5.0), 100u);
  // The level carried in at the window's start overflows too.
  EXPECT_EQ(f.skip_overflow({0, 10}, 3.0, 5.0), 150u);
  EXPECT_EQ(f.skip_overflow({0, 10}, 6.0, 5.0), std::nullopt);
}

TEST(StepFunction, EmptyIntervalAndZeroDrawAreNoops) {
  StepFunction f;
  f.add({5, 5}, 10.0);
  f.add({0, 10}, 0.0);
  EXPECT_EQ(f.peak(), 0.0);
  EXPECT_EQ(f.skip_overflow({0, 1}, 6.0, 5.0), std::nullopt);  // no breakpoint to reach
}

TEST(StepFunction, RejectsBadDrawsWithTheSharedText) {
  EXPECT_EQ(add_error(std::numeric_limits<double>::quiet_NaN()),
            "PowerProfile: bad power value nan");
  EXPECT_EQ(add_error(-1.0), "PowerProfile: bad power value -1");
  EXPECT_EQ(add_error(std::numeric_limits<double>::infinity()),
            "PowerProfile: bad power value inf");
}

/// skip_overflow(iv) stays at iv.start exactly when the oracle fits the
/// window there; otherwise every start before its answer overflows a
/// window of iv's length, and the answer is a breakpoint whose own level
/// fits (or nullopt when no later start fits either).
void expect_skip_matches_oracle(StepFunction& f, const PowerProfile& oracle, const Interval& iv,
                                double value, double limit) {
  const std::optional<std::uint64_t> skip = f.skip_overflow(iv, value, limit);
  const std::uint64_t len = iv.end - iv.start;
  const auto window_fits = [&](std::uint64_t s) { return oracle.fits({s, s + len}, value, limit); };
  if (window_fits(iv.start)) {
    ASSERT_EQ(skip, std::optional<std::uint64_t>(iv.start));
    return;
  }
  const std::uint64_t end = skip ? *skip : 400;  // past every breakpoint of the property
  ASSERT_GT(end, iv.start);
  for (std::uint64_t s = iv.start; s < end; ++s) {
    ASSERT_FALSE(window_fits(s)) << "skip_overflow jumped past a fitting start " << s;
  }
  if (skip) {
    ASSERT_EQ(oracle.next_change_after(*skip - 1), skip);
    ASSERT_TRUE(oracle.fits({*skip, *skip + 1}, value, limit));
  }
}

// The earliest-completion pattern: adds anywhere on the timeline,
// interleaved with overflow skips over windows.  (The
// first-available pattern, every add at a pass time that never
// decreases, is the kernel's pass ledger; tests/search/
// delta_eval_property_test.cpp checks it against the reference planner.)
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
          SCOPED_TRACE(testing::Message() << "seed " << seed << " window [" << iv.start << ", "
                                          << iv.end << ") limit " << limit);
          expect_skip_matches_oracle(f, oracle, iv, v, limit);
        }
      }
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

// sweep_edges merges the sorted starts with the sorted ends; the order
// must be the one a sort of every edge by (time, draw) gives, whether
// the starts come in order (as a plan lists them) or not, and a reused
// buffer must not carry edges over from its previous sweep.
TEST(PeakSweepProperty, MergedEdgesMatchOneSortOfEveryEdge) {
  std::vector<Edge> reused;
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    Rng rng(seed * 7919);
    const std::size_t draws = rng.below(50);
    std::vector<Interval> spans;
    std::uint64_t start = 0;
    for (std::size_t i = 0; i < draws; ++i) {
      start = seed % 2 == 0 ? start + rng.below(3) : rng.below(40);  // even: starts in order
      const std::uint64_t len = rng.below(6) == 0 ? 0 : 1 + rng.below(12);
      spans.push_back({start, start + len});
    }
    std::vector<Edge> want;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].empty()) continue;
      want.push_back(Edge{spans[i].start, i, 1.0});
      want.push_back(Edge{spans[i].end, i, -1.0});
    }
    std::sort(want.begin(), want.end(), [](const Edge& a, const Edge& b) {
      return a.time != b.time ? a.time < b.time : a.draw < b.draw;
    });
    auto same = [&](const std::vector<Edge>& got) {
      if (got.size() != want.size()) return false;
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].time != want[i].time || got[i].draw != want[i].draw ||
            got[i].sign != want[i].sign) {
          return false;
        }
      }
      return true;
    };
    EXPECT_TRUE(same(sweep_edges(spans))) << "seed " << seed;
    sweep_edges(spans, reused);
    EXPECT_TRUE(same(reused)) << "seed " << seed << ", reused buffer";
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
