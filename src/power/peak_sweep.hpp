#pragma once
// The checkers' peak of interval draws: the validator's power and
// channel-load peaks and the DES trace's observed peak power.
//
// A checker knows every draw up front and wants only peaks, so instead
// of keeping a step function it visits every draw's start and end once,
// in (time, draw index) order, into a lane per summed quantity.  The
// deltas landing on a lane at one instant are summed first, in draw
// order, and only then added to its level: the arithmetic of one
// std::map<time, delta> per lane fed the draws in index order, so every
// peak is the double that walk returns.  It shares no state or code path
// with the planner's StepFunction, keeping the checks independent of
// the plans they check.

#include <cstdint>
#include <span>
#include <vector>

#include "common/interval_set.hpp"

namespace nocsched::power {

/// One start or end of draw `draw`.
struct Edge {
  std::uint64_t time = 0;
  std::size_t draw = 0;  ///< index into the spans sweep_edges was given
  double sign = 1.0;     ///< +1 at the draw's start, -1 at its end
};

/// The start and end edges of every non-empty span, in (time, draw
/// index) order: the order PeakSweep sums same-instant deltas in.
[[nodiscard]] std::vector<Edge> sweep_edges(std::span<const Interval> spans);

class PeakSweep {
 public:
  explicit PeakSweep(std::size_t lanes) : lanes_(lanes) {}

  /// Books `value` on `lane` at edge `e` (+value at a start, -value at
  /// an end).  Edges must come in sweep_edges order.
  void add(std::size_t lane, const Edge& e, double value) {
    Lane& l = lanes_[lane];
    if (l.at != e.time) {
      l.fold();  // a fold of a zero step changes nothing
      l.at = e.time;
    }
    l.step += e.sign * value;
  }

  /// The highest level `lane` reached (0 if it never rose), once every
  /// edge is in.
  [[nodiscard]] double peak(std::size_t lane) {
    lanes_[lane].fold();
    return lanes_[lane].peak;
  }

 private:
  struct Lane {
    std::uint64_t at = 0;  ///< the instant `step` sums the deltas of
    double step = 0.0;
    double level = 0.0;
    double peak = 0.0;
    void fold() {
      level += step;
      peak = level > peak ? level : peak;
      step = 0.0;
    }
  };
  std::vector<Lane> lanes_;
};

}  // namespace nocsched::power
