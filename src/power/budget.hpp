#pragma once
// Peak-power budget definition, and the two predicates every consumer
// of a draw shares: what a legal draw is, and what fits under a limit.
//
// The paper: "This constraint is defined as a percentage of the sum of
// all cores power consumption.  Thus, for example, a power limit of 50%
// indicates that the power limit corresponds to half of the sum of all
// cores power consumption in test mode."

#include <cmath>
#include <limits>

#include "itc02/soc.hpp"

namespace nocsched::power {

struct PowerBudget {
  /// Absolute peak power the schedule may draw at any instant.
  double limit = std::numeric_limits<double>::infinity();

  /// No constraint (the paper's "no power limit" series).
  [[nodiscard]] static PowerBudget unconstrained();

  /// `fraction` of the sum of all module test powers (the paper's "50%
  /// power limit" uses fraction = 0.5).  Requires fraction > 0.
  [[nodiscard]] static PowerBudget fraction_of_total(const itc02::Soc& soc, double fraction);

  [[nodiscard]] bool is_constrained() const {
    return limit != std::numeric_limits<double>::infinity();
  }
};

/// True if `draw` fits under `limit`: draw <= limit + 1e-9 * (|limit| + 1).
/// Power values are sums of a handful of doubles, so a relative epsilon
/// on the limit is plenty.  This is the one admission tolerance: the
/// planner's power and channel-load envelopes (a channel's limit is its
/// capacity, 1.0), the replay's launch admission, the validator and the
/// cross-check all ask it, so "what the planner admits" and "what
/// verification flags" cannot diverge.
[[nodiscard]] inline bool within_budget(double draw, double limit) {
  return draw <= limit + 1e-9 * (std::abs(limit) + 1.0);
}

/// Throw nocsched::Error unless `value` is a legal constant draw
/// (finite and non-negative): the check every booking of a session's
/// power or a leg's channel bandwidth applies.
void require_valid_draw(double value);

}  // namespace nocsched::power
