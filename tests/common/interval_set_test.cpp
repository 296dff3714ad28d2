#include "common/interval_set.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace nocsched {
namespace {

TEST(Interval, BasicPredicates) {
  EXPECT_TRUE((Interval{5, 5}).empty());
  EXPECT_FALSE((Interval{5, 6}).empty());
  EXPECT_EQ((Interval{2, 10}).length(), 8u);
}

TEST(Interval, OverlapIsHalfOpen) {
  EXPECT_TRUE((Interval{0, 10}).overlaps({5, 15}));
  EXPECT_FALSE((Interval{0, 10}).overlaps({10, 20}));  // touching ends
  EXPECT_FALSE((Interval{10, 20}).overlaps({0, 10}));
  EXPECT_TRUE((Interval{0, 100}).overlaps({40, 41}));  // containment
}

TEST(IntervalSet, EmptySetNeverConflicts) {
  IntervalSet s;
  EXPECT_FALSE(s.conflicts({0, 100}));
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSet, InsertAndConflict) {
  IntervalSet s;
  s.insert({10, 20});
  EXPECT_TRUE(s.conflicts({15, 16}));
  EXPECT_TRUE(s.conflicts({0, 11}));
  EXPECT_TRUE(s.conflicts({19, 30}));
  EXPECT_FALSE(s.conflicts({0, 10}));
  EXPECT_FALSE(s.conflicts({20, 30}));
}

TEST(IntervalSet, AdjacentIntervalsAllowed) {
  IntervalSet s;
  s.insert({10, 20});
  EXPECT_NO_THROW(s.insert({20, 30}));
  EXPECT_NO_THROW(s.insert({0, 10}));
  EXPECT_EQ(s.size(), 3u);
}

TEST(IntervalSet, OverlappingInsertThrows) {
  IntervalSet s;
  s.insert({10, 20});
  EXPECT_THROW(s.insert({15, 25}), Error);
  EXPECT_THROW(s.insert({5, 11}), Error);
  EXPECT_THROW(s.insert({12, 13}), Error);
  EXPECT_EQ(s.size(), 1u);  // failed inserts leave the set unchanged
}

TEST(IntervalSet, EmptyInsertThrows) {
  IntervalSet s;
  EXPECT_THROW(s.insert({5, 5}), Error);
}

TEST(IntervalSet, EmptyIntervalNeverConflicts) {
  IntervalSet s;
  s.insert({0, 100});
  EXPECT_FALSE(s.conflicts({50, 50}));
}

TEST(IntervalSet, KeepsSortedOrder) {
  IntervalSet s;
  s.insert({30, 40});
  s.insert({10, 20});
  s.insert({50, 60});
  ASSERT_EQ(s.intervals().size(), 3u);
  EXPECT_EQ(s.intervals()[0].start, 10u);
  EXPECT_EQ(s.intervals()[1].start, 30u);
  EXPECT_EQ(s.intervals()[2].start, 50u);
}

TEST(IntervalSet, EarliestFitEmptySet) {
  IntervalSet s;
  EXPECT_EQ(s.earliest_fit(17, 100), 17u);
}

TEST(IntervalSet, EarliestFitSkipsBusyRegions) {
  IntervalSet s;
  s.insert({10, 20});
  s.insert({25, 40});
  EXPECT_EQ(s.earliest_fit(0, 10), 0u);   // fits before the first interval
  EXPECT_EQ(s.earliest_fit(0, 11), 40u);  // gap [20,25) too small
  EXPECT_EQ(s.earliest_fit(0, 5), 0u);
  EXPECT_EQ(s.earliest_fit(12, 5), 20u);  // starts inside busy -> after it
  EXPECT_EQ(s.earliest_fit(12, 4), 20u);
  EXPECT_EQ(s.earliest_fit(41, 100), 41u);
}

TEST(IntervalSet, EarliestFitUsesExactGap) {
  IntervalSet s;
  s.insert({10, 20});
  s.insert({30, 40});
  EXPECT_EQ(s.earliest_fit(0, 10), 0u);
  EXPECT_EQ(s.earliest_fit(15, 10), 20u);  // the [20,30) gap is exactly 10
  EXPECT_EQ(s.earliest_fit(15, 11), 40u);
}

TEST(IntervalSet, ZeroLengthFitsAnywhere) {
  IntervalSet s;
  s.insert({0, 100});
  EXPECT_EQ(s.earliest_fit(50, 0), 50u);
}

TEST(IntervalSet, ClearResets) {
  IntervalSet s;
  s.insert({0, 10});
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.conflicts({5, 6}));
}

// Property: conflicts() agrees with a brute-force check over many random
// insert/query mixes.
TEST(IntervalSet, MatchesBruteForce) {
  Rng rng(2024);
  for (int round = 0; round < 50; ++round) {
    IntervalSet s;
    std::vector<Interval> inserted;
    for (int i = 0; i < 40; ++i) {
      const std::uint64_t start = rng.below(1000);
      const Interval iv{start, start + 1 + rng.below(50)};
      bool brute = false;
      for (const Interval& other : inserted) brute = brute || iv.overlaps(other);
      EXPECT_EQ(s.conflicts(iv), brute);
      if (!brute) {
        s.insert(iv);
        inserted.push_back(iv);
      }
    }
  }
}

}  // namespace
}  // namespace nocsched
