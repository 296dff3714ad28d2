#include "support/power_profile.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace nocsched::power {
namespace {

TEST(PowerProfile, EmptyProfile) {
  const PowerProfile p;
  EXPECT_DOUBLE_EQ(p.peak(), 0.0);
  EXPECT_DOUBLE_EQ(p.max_in({0, 100}), 0.0);
  EXPECT_TRUE(p.fits({0, 100}, 5.0, 5.0));
  EXPECT_FALSE(p.next_change_after(0).has_value());
}

TEST(PowerProfile, SingleContribution) {
  PowerProfile p;
  p.add({10, 20}, 5.0);
  EXPECT_DOUBLE_EQ(p.peak(), 5.0);
  EXPECT_DOUBLE_EQ(p.max_in({0, 10}), 0.0);   // half-open: ends before start
  EXPECT_DOUBLE_EQ(p.max_in({10, 11}), 5.0);
  EXPECT_DOUBLE_EQ(p.max_in({19, 20}), 5.0);
  EXPECT_DOUBLE_EQ(p.max_in({20, 30}), 0.0);  // ends exactly at 20
}

TEST(PowerProfile, OverlapsSum) {
  PowerProfile p;
  p.add({0, 100}, 3.0);
  p.add({50, 150}, 4.0);
  EXPECT_DOUBLE_EQ(p.peak(), 7.0);
  EXPECT_DOUBLE_EQ(p.max_in({0, 50}), 3.0);
  EXPECT_DOUBLE_EQ(p.max_in({40, 60}), 7.0);
  EXPECT_DOUBLE_EQ(p.max_in({100, 150}), 4.0);
}

TEST(PowerProfile, TouchingIntervalsDoNotStack) {
  PowerProfile p;
  p.add({0, 10}, 5.0);
  p.add({10, 20}, 5.0);
  EXPECT_DOUBLE_EQ(p.peak(), 5.0);
}

TEST(PowerProfile, FitsRespectsLimitWithTolerance) {
  PowerProfile p;
  p.add({0, 100}, 3.0);
  EXPECT_TRUE(p.fits({0, 100}, 2.0, 5.0));   // exactly at the limit
  EXPECT_FALSE(p.fits({0, 100}, 2.1, 5.0));
  EXPECT_TRUE(p.fits({100, 200}, 5.0, 5.0));
  EXPECT_TRUE(p.fits({50, 50}, 100.0, 1.0));  // empty window fits anything
}

TEST(PowerProfile, MaxInSeesLevelCarriedIntoWindow) {
  PowerProfile p;
  p.add({0, 1000}, 7.0);
  // No breakpoints inside [500, 600) but the level holds there.
  EXPECT_DOUBLE_EQ(p.max_in({500, 600}), 7.0);
}

TEST(PowerProfile, Steps) {
  PowerProfile p;
  p.add({10, 20}, 1.0);
  p.add({15, 30}, 2.0);
  const auto steps = p.steps();
  ASSERT_EQ(steps.size(), 4u);
  EXPECT_EQ(steps[0], (std::pair<std::uint64_t, double>{10, 1.0}));
  EXPECT_EQ(steps[1], (std::pair<std::uint64_t, double>{15, 3.0}));
  EXPECT_EQ(steps[2], (std::pair<std::uint64_t, double>{20, 2.0}));
  EXPECT_EQ(steps[3], (std::pair<std::uint64_t, double>{30, 0.0}));
}

TEST(PowerProfile, EnergyIntegrates) {
  PowerProfile p;
  p.add({0, 10}, 2.0);
  p.add({5, 10}, 1.0);
  EXPECT_DOUBLE_EQ(p.energy_until(10), 2.0 * 10 + 1.0 * 5);
  EXPECT_DOUBLE_EQ(p.energy_until(5), 10.0);
  EXPECT_DOUBLE_EQ(p.energy_until(1000), 25.0);
}

TEST(PowerProfile, NextChangeAfter) {
  PowerProfile p;
  p.add({10, 20}, 1.0);
  EXPECT_EQ(p.next_change_after(0), std::optional<std::uint64_t>(10));
  EXPECT_EQ(p.next_change_after(10), std::optional<std::uint64_t>(20));
  EXPECT_EQ(p.next_change_after(20), std::nullopt);
}

TEST(PowerProfile, EmptyIntervalAndZeroValueAreNoops) {
  PowerProfile p;
  p.add({5, 5}, 10.0);
  p.add({0, 10}, 0.0);
  EXPECT_DOUBLE_EQ(p.peak(), 0.0);
}

TEST(PowerProfile, RejectsBadValues) {
  PowerProfile p;
  EXPECT_THROW(p.add({0, 10}, -1.0), Error);
  EXPECT_THROW(p.add({0, 10}, std::nan("")), Error);
}

TEST(PowerProfile, ClearResets) {
  PowerProfile p;
  p.add({0, 10}, 3.0);
  p.clear();
  EXPECT_DOUBLE_EQ(p.peak(), 0.0);
}

// Property: max_in agrees with a brute-force per-cycle simulation.
TEST(PowerProfile, MatchesBruteForce) {
  Rng rng(4321);
  for (int round = 0; round < 20; ++round) {
    PowerProfile p;
    std::vector<double> level(200, 0.0);
    for (int i = 0; i < 15; ++i) {
      const std::uint64_t start = rng.below(180);
      const std::uint64_t end = start + 1 + rng.below(20);
      const double value = 1.0 + static_cast<double>(rng.below(10));
      p.add({start, end}, value);
      for (std::uint64_t t = start; t < end && t < 200; ++t) {
        level[t] += value;
      }
    }
    for (int q = 0; q < 20; ++q) {
      const std::uint64_t a = rng.below(190);
      const std::uint64_t b = a + 1 + rng.below(9);
      double brute = 0.0;
      for (std::uint64_t t = a; t < b; ++t) brute = std::max(brute, level[t]);
      EXPECT_NEAR(p.max_in({a, b}), brute, 1e-9);
    }
    double brute_peak = 0.0;
    for (double v : level) brute_peak = std::max(brute_peak, v);
    EXPECT_NEAR(p.peak(), brute_peak, 1e-9);
  }
}

}  // namespace
}  // namespace nocsched::power
