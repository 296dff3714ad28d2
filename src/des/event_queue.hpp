#pragma once
// Deterministic discrete-event queue.
//
// A min-heap keyed on (time, sequence): events fire in time order, and
// events scheduled for the same instant fire in sequence order.  The
// queue issues sequences in push order, so equal-time events are FIFO.
// The sequence tie-break is what makes the replay simulator
// reproducible — two runs over identical inputs execute the exact same
// handler order, so traces are byte-identical.
//
// Reserved slots.  reserve() issues the next sequence without queuing
// anything; push_at(time, seq, payload) queues an event on such a
// slot later.  The event then pops exactly where push(time, payload)
// would have put it at reservation time, because the heap orders by
// (time, seq) alone.  A slot that is never queued still consumed its
// sequence: callers use this to skip an event that would have done
// nothing while keeping every other event's position (and the event
// count) unchanged.
//
// The heap is a flat 4-ary heap on one vector: half the depth of a
// binary heap, with a node's four children side by side in memory.

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

  /// Schedule `payload` at `time` on the next sequence (`time` may equal
  /// the current front's time; it may not travel into the past — callers
  /// pop monotonically, so pushing below the last popped time is a bug).
  void push(std::uint64_t time, Payload payload) {
    NOCSCHED_ASSERT(time >= last_popped_);
    sift_up(Event{time, next_seq_++, std::move(payload)});
  }

  /// Issue the next sequence without queuing an event on it.
  [[nodiscard]] std::uint64_t reserve() { return next_seq_++; }

  /// Queue `payload` at `time` on a sequence issued earlier by
  /// reserve().  Each reserved sequence may be queued at most once, and
  /// (time, seq) may not order before the last popped event.
  void push_at(std::uint64_t time, std::uint64_t seq, Payload payload) {
    NOCSCHED_ASSERT(seq < next_seq_);
    NOCSCHED_ASSERT(time > last_popped_ || (time == last_popped_ && seq >= last_popped_seq_));
    sift_up(Event{time, seq, std::move(payload)});
  }

  /// Remove and return the earliest event (lowest (time, seq)).
  [[nodiscard]] Event pop() {
    NOCSCHED_ASSERT(!heap_.empty());
    Event top = std::move(heap_.front());
    Event last = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) sift_down(std::move(last));
    last_popped_ = top.time;
    last_popped_seq_ = top.seq;
    return top;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Sequences issued so far, by push or reserve (the replay's event
  /// count statistic: every issued slot is one event of the model).
  [[nodiscard]] std::uint64_t pushed() const { return next_seq_; }

 private:
  static constexpr std::size_t kArity = 4;

  static bool before(const Event& a, const Event& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  /// Append `e` and move it up to its place.
  void sift_up(Event e) {
    std::size_t i = heap_.size();
    heap_.emplace_back();
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, heap_[parent])) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(e);
  }

  /// Place `e` in the hole at the root and move it down to its place.
  void sift_down(Event e) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      std::size_t least = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(heap_[c], heap_[least])) least = c;
      }
      if (!before(heap_[least], e)) break;
      heap_[i] = std::move(heap_[least]);
      i = least;
    }
    heap_[i] = std::move(e);
  }

  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t last_popped_ = 0;
  std::uint64_t last_popped_seq_ = 0;
};

}  // namespace nocsched::des
