#pragma once
// Deterministic discrete-event queue.
//
// A priority queue keyed on (time, sequence): events fire in time
// order, and events scheduled for the same instant fire in sequence
// order.  The queue issues sequences in push order, so equal-time
// events are FIFO.  The sequence tie-break is what makes the replay
// simulator reproducible — two runs over identical inputs execute the
// exact same handler order, so traces are byte-identical.
//
// Reserved slots.  reserve() issues the next sequence without queuing
// anything; push_at(time, seq, payload) queues an event on such a
// slot later.  The event then pops exactly where push(time, payload)
// would have put it at reservation time, because the queue orders by
// (time, seq) alone.  A slot that is never queued still consumed its
// sequence: callers use this to skip an event that would have done
// nothing while keeping every other event's position (and the event
// count) unchanged.
//
// Storage is a calendar wheel plus an overflow heap.  The wheel has
// kSpan one-cycle buckets covering [last popped time, + kSpan): an
// event inside that window goes to bucket `time % kSpan`, and since
// pops never move backwards the window only slides forward, so every
// event in one bucket has the same time.  A bucket is a seq-ordered
// singly linked list of pooled nodes (int32 head/tail per bucket, one
// free list for the whole queue — no allocation per bucket), and a
// two-level occupancy bitmap finds the next non-empty bucket in a few
// word operations.  Events kSpan or more cycles ahead (a few percent
// of the replay's pushes) go to a flat 4-ary (time, seq) heap instead.
// pop() takes the smaller (time, seq) of the next bucket's head and the
// heap's top, so an instant whose events are split between the two
// stores still pops in sequence order.

#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace nocsched::des {

template <typename Payload>
class EventQueue {
 public:
  struct Event {
    std::uint64_t time = 0;
    std::uint64_t seq = 0;  ///< issued in push/reserve order; breaks time ties FIFO
    Payload payload{};
  };

  /// Width of the calendar wheel in cycles: events closer than this to
  /// the last popped time sit in a bucket, the rest in the overflow heap.
  static constexpr std::uint64_t kSpan = 1024;

  /// Schedule `payload` at `time` on the next sequence (`time` may equal
  /// the current front's time; it may not travel into the past — callers
  /// pop monotonically, so pushing below the last popped time is a bug).
  void push(std::uint64_t time, Payload payload) {
    NOCSCHED_ASSERT(time >= last_popped_);
    insert(Event{time, next_seq_++, std::move(payload)});
  }

  /// Issue the next sequence without queuing an event on it.
  [[nodiscard]] std::uint64_t reserve() { return next_seq_++; }

  /// Queue `payload` at `time` on a sequence issued earlier by
  /// reserve().  Each reserved sequence may be queued at most once, and
  /// (time, seq) may not order before the last popped event.
  void push_at(std::uint64_t time, std::uint64_t seq, Payload payload) {
    NOCSCHED_ASSERT(seq < next_seq_);
    NOCSCHED_ASSERT(time > last_popped_ || (time == last_popped_ && seq >= last_popped_seq_));
    insert(Event{time, seq, std::move(payload)});
  }

  /// Remove and return the earliest event (lowest (time, seq)).
  [[nodiscard]] Event pop() {
    NOCSCHED_ASSERT(!empty());
    Event top;
    if (near_ == 0) {
      top = pop_far();
    } else {
      const std::size_t b = next_bucket();
      if (!far_.empty() && before(far_.front(), node(head_[b]).event)) {
        top = pop_far();
      } else {
        top = pop_near(b);
      }
    }
    last_popped_ = top.time;
    last_popped_seq_ = top.seq;
    return top;
  }

  [[nodiscard]] bool empty() const { return near_ == 0 && far_.empty(); }
  [[nodiscard]] std::size_t size() const { return near_ + far_.size(); }

  /// Sequences issued so far, by push or reserve (the replay's event
  /// count statistic: every issued slot is one event of the model).
  [[nodiscard]] std::uint64_t pushed() const { return next_seq_; }

 private:
  static constexpr std::size_t kWords = kSpan / 64;
  static_assert(std::has_single_bit(kSpan) && kWords >= 1 && kWords <= 64,
                "the wheel is a power of two wide and its word summary fits one word");

  struct Node {
    Event event;
    std::int32_t next = -1;  ///< next node of the bucket (or of the free list)
  };

  [[nodiscard]] Node& node(std::int32_t n) { return nodes_[static_cast<std::size_t>(n)]; }

  static bool before(const Event& a, const Event& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  void insert(Event e) {
    if (e.time - last_popped_ < kSpan) {
      insert_near(std::move(e));
    } else {
      sift_up(std::move(e));
    }
  }

  /// Link `e` into its bucket, in seq order.  push() always issues the
  /// largest sequence so far and appends; only push_at() on an older
  /// reservation can land ahead of the tail.
  void insert_near(Event e) {
    const std::size_t b = static_cast<std::size_t>(e.time) & (kSpan - 1);
    const std::uint64_t seq = e.seq;
    const std::int32_t n = take_node(std::move(e));
    const std::uint64_t bit = std::uint64_t{1} << (b & 63);
    if ((bits_[b >> 6] & bit) == 0) {
      bits_[b >> 6] |= bit;
      summary_ |= std::uint64_t{1} << (b >> 6);
      head_[b] = n;
      tail_[b] = n;
    } else if (node(tail_[b]).event.seq < seq) {
      node(tail_[b]).next = n;
      tail_[b] = n;
    } else {
      std::int32_t* link = &head_[b];
      while (node(*link).event.seq < seq) {
        link = &node(*link).next;
      }
      node(n).next = *link;
      *link = n;
    }
    ++near_;
  }

  /// A pooled node holding `e`, its `next` cleared.
  std::int32_t take_node(Event e) {
    std::int32_t n = free_;
    if (n >= 0) {
      free_ = node(n).next;
      node(n) = Node{std::move(e), -1};
    } else {
      n = static_cast<std::int32_t>(nodes_.size());
      nodes_.push_back(Node{std::move(e), -1});
    }
    return n;
  }

  /// The first non-empty bucket at or after the last popped time, in
  /// wheel order (requires near_ > 0).  Wheel order from the start
  /// bucket is time order, because every bucketed event lies in
  /// [last popped time, + kSpan).
  [[nodiscard]] std::size_t next_bucket() const {
    const std::size_t start = static_cast<std::size_t>(last_popped_) & (kSpan - 1);
    std::size_t w = start >> 6;
    const std::uint64_t here = bits_[w] & (~std::uint64_t{0} << (start & 63));
    if (here != 0) return (w << 6) | static_cast<std::size_t>(std::countr_zero(here));
    // Words after w, else wrap to the lowest occupied word (possibly w
    // itself, whose remaining bits all lie before `start`).
    std::uint64_t words = summary_ & (~std::uint64_t{0} << w << 1);
    if (words == 0) words = summary_;
    w = static_cast<std::size_t>(std::countr_zero(words));
    return (w << 6) | static_cast<std::size_t>(std::countr_zero(bits_[w]));
  }

  /// Unlink and return the head of bucket `b`, recycling its node.
  Event pop_near(std::size_t b) {
    const std::int32_t n = head_[b];
    Node& popped = node(n);
    Event out = std::move(popped.event);
    head_[b] = popped.next;
    if (head_[b] < 0) {
      bits_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
      if (bits_[b >> 6] == 0) summary_ &= ~(std::uint64_t{1} << (b >> 6));
    }
    popped.next = free_;
    free_ = n;
    --near_;
    return out;
  }

  // ----- overflow store: a flat 4-ary heap on one vector ---------------

  static constexpr std::size_t kArity = 4;

  Event pop_far() {
    Event top = std::move(far_.front());
    Event last = std::move(far_.back());
    far_.pop_back();
    if (!far_.empty()) sift_down(std::move(last));
    return top;
  }

  /// Append `e` and move it up to its place.
  void sift_up(Event e) {
    std::size_t i = far_.size();
    far_.emplace_back();
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, far_[parent])) break;
      far_[i] = std::move(far_[parent]);
      i = parent;
    }
    far_[i] = std::move(e);
  }

  /// Place `e` in the hole at the root and move it down to its place.
  void sift_down(Event e) {
    const std::size_t n = far_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      std::size_t least = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(far_[c], far_[least])) least = c;
      }
      if (!before(far_[least], e)) break;
      far_[i] = std::move(far_[least]);
      i = least;
    }
    far_[i] = std::move(e);
  }

  // Bucket b's list runs head_[b] -> ... -> tail_[b]; both are
  // meaningful only while b's occupancy bit is set.
  std::array<std::int32_t, kSpan> head_{};
  std::array<std::int32_t, kSpan> tail_{};
  std::array<std::uint64_t, kWords> bits_{};  ///< bit b: bucket b is non-empty
  std::uint64_t summary_ = 0;                 ///< bit w: bits_[w] != 0
  std::vector<Node> nodes_;                   ///< node pool shared by every bucket
  std::int32_t free_ = -1;                    ///< free-list head in nodes_
  std::size_t near_ = 0;                      ///< events in the wheel
  std::vector<Event> far_;                    ///< overflow heap: kSpan+ cycles ahead
  std::uint64_t next_seq_ = 0;
  std::uint64_t last_popped_ = 0;
  std::uint64_t last_popped_seq_ = 0;
};

}  // namespace nocsched::des
