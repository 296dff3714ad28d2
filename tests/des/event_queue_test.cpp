#include "des/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace nocsched::des {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue<int> q;
  q.push(30, 3);
  q.push(10, 1);
  q.push(20, 2);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().payload, 1);
  EXPECT_EQ(q.pop().payload, 2);
  EXPECT_EQ(q.pop().payload, 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualTimesAreFifo) {
  EventQueue<char> q;
  for (char c : {'a', 'b', 'c', 'd'}) q.push(5, c);
  std::string order;
  while (!q.empty()) order += q.pop().payload;
  EXPECT_EQ(order, "abcd");
}

TEST(EventQueue, FifoHoldsAcrossInterleavedPushes) {
  EventQueue<int> q;
  q.push(5, 1);
  q.push(9, 9);
  q.push(5, 2);
  EXPECT_EQ(q.pop().payload, 1);
  q.push(5, 3);  // same instant as the current front
  EXPECT_EQ(q.pop().payload, 2);
  EXPECT_EQ(q.pop().payload, 3);
  EXPECT_EQ(q.pop().payload, 9);
}

TEST(EventQueue, CountsEveryPush) {
  EventQueue<int> q;
  for (int i = 0; i < 7; ++i) q.push(static_cast<std::uint64_t>(i), i);
  while (!q.empty()) (void)q.pop();
  q.push(100, 0);
  EXPECT_EQ(q.pushed(), 8u);
}

TEST(EventQueue, ReportsEventTimeAndSequence) {
  EventQueue<int> q;
  q.push(4, 40);
  q.push(4, 41);
  const auto first = q.pop();
  const auto second = q.pop();
  EXPECT_EQ(first.time, 4u);
  EXPECT_EQ(second.time, 4u);
  EXPECT_LT(first.seq, second.seq);
}

TEST(EventQueue, LateQueuedReservationPopsWhereAnEagerPushWould) {
  // Same instant on both sides of the reserved slot: 'a' before it,
  // 'c' and 'e' after it, and it is queued only after 'a' popped.
  EventQueue<char> eager;
  for (const char c : {'a', 'b', 'c'}) eager.push(5, c);
  eager.push(7, 'd');
  eager.push(5, 'e');

  EventQueue<char> lazy;
  lazy.push(5, 'a');
  const std::uint64_t slot = lazy.reserve();
  lazy.push(5, 'c');
  lazy.push(7, 'd');
  lazy.push(5, 'e');
  std::string eager_order;
  std::string lazy_order;
  eager_order += eager.pop().payload;
  lazy_order += lazy.pop().payload;
  lazy.push_at(5, slot, 'b');
  while (!eager.empty()) eager_order += eager.pop().payload;
  while (!lazy.empty()) lazy_order += lazy.pop().payload;
  EXPECT_EQ(eager_order, "abced");
  EXPECT_EQ(lazy_order, eager_order);
  EXPECT_EQ(lazy.pushed(), eager.pushed());
}

TEST(EventQueue, UnqueuedReservationStillCounts) {
  EventQueue<int> q;
  q.push(1, 1);
  (void)q.reserve();
  q.push(2, 2);
  (void)q.reserve();
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pushed(), 4u);
  EXPECT_EQ(q.pop().payload, 1);
  EXPECT_EQ(q.pop().payload, 2);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pushed(), 4u);
}

TEST(EventQueue, PushAtRejectsUnissuedSequencesAndThePast) {
  EventQueue<int> q;
  EXPECT_THROW(q.push_at(1, 0, 0), Error);  // nothing issued yet
  const std::uint64_t early = q.reserve();
  q.push(10, 1);
  const std::uint64_t late = q.reserve();
  EXPECT_THROW(q.push_at(10, late + 1, 0), Error);
  EXPECT_EQ(q.pop().payload, 1);
  EXPECT_THROW(q.push_at(9, late, 0), Error);    // before the last popped time
  EXPECT_THROW(q.push_at(10, early, 0), Error);  // same time, ordered before the pop
  q.push_at(10, late, 2);
  EXPECT_EQ(q.pop().payload, 2);
}

TEST(EventQueue, SameInstantSplitAcrossWheelAndOverflowPopsBySequence) {
  using Queue = EventQueue<char>;
  constexpr std::uint64_t kFar = Queue::kSpan + 5;
  // 'a' is pushed while its time is a full span ahead (overflow store);
  // 'b' is pushed for the same instant once it is near (a wheel bucket).
  Queue q;
  q.push(kFar, 'a');
  q.push(10, 'x');
  EXPECT_EQ(q.pop().payload, 'x');
  q.push(kFar, 'b');
  EXPECT_EQ(q.pop().payload, 'a');
  EXPECT_EQ(q.pop().payload, 'b');
  EXPECT_TRUE(q.empty());

  // The other way round: the near event holds the older (reserved)
  // sequence, so it pops ahead of the far one at the same instant.
  Queue r;
  const std::uint64_t slot = r.reserve();
  r.push(kFar, 'd');
  r.push(10, 'x');
  EXPECT_EQ(r.pop().payload, 'x');
  r.push_at(kFar, slot, 'c');
  EXPECT_EQ(r.pop().payload, 'c');
  EXPECT_EQ(r.pop().payload, 'd');
  EXPECT_TRUE(r.empty());
}

TEST(EventQueue, RandomInterleaveMatchesSortedReference) {
  // Gaps below 4 cycles keep to a few wheel buckets; the span-sized
  // ones reach the overflow store, wrap the wheel, and split one
  // instant between bucket and overflow.
  constexpr std::uint64_t kSpan = EventQueue<int>::kSpan;
  constexpr std::array<std::uint64_t, 8> kGaps = {0,         1,     2,         3,
                                                  kSpan - 1, kSpan, kSpan + 1, 10 * kSpan};
  using Key = std::tuple<std::uint64_t, std::uint64_t, int>;  // time, seq, payload
  Rng rng(0xE7E47);
  EventQueue<int> q;
  std::set<Key> reference;
  std::vector<std::uint64_t> reserved;
  std::uint64_t last_time = 0;
  std::uint64_t last_seq = 0;
  int payload = 0;
  const auto gap = [&] { return kGaps[static_cast<std::size_t>(rng.below(kGaps.size()))]; };
  const auto expect_pop = [&] {
    ASSERT_FALSE(reference.empty());
    const auto e = q.pop();
    const Key want = *reference.begin();
    reference.erase(reference.begin());
    ASSERT_EQ(Key(e.time, e.seq, e.payload), want);
    last_time = e.time;
    last_seq = e.seq;
  };
  for (int op = 0; op < 10000; ++op) {
    const std::uint64_t roll = rng.below(10);
    if (roll < 3) {
      const std::uint64_t time = last_time + gap();
      reference.emplace(time, q.pushed(), ++payload);
      q.push(time, payload);
    } else if (roll < 5) {
      reserved.push_back(q.reserve());
    } else if (roll < 7 && !reserved.empty()) {
      const std::size_t i = static_cast<std::size_t>(rng.below(reserved.size()));
      const std::uint64_t seq = reserved[i];
      reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(i));
      std::uint64_t time = last_time + gap();
      if (time == last_time && seq < last_seq) ++time;
      reference.emplace(time, seq, ++payload);
      q.push_at(time, seq, payload);
    } else if (!reference.empty()) {
      expect_pop();
    }
    ASSERT_EQ(q.size(), reference.size());
  }
  while (!reference.empty()) expect_pop();
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace nocsched::des
