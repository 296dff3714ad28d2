#pragma once
// Seeded random systems and planner-parameter sweeps shared by the
// planner property suites (kernel vs oracle).

#include <cstdint>

#include "common/rng.hpp"
#include "core/params.hpp"
#include "core/system_model.hpp"

namespace nocsched::support {

/// A random SoC of 3-12 cores plus 1-3 reused Leon/Plasma processors on
/// a 2x2..5x5 mesh, default placement and ATE corners, drawn from `rng`.
[[nodiscard]] core::SystemModel random_system(Rng& rng, const core::PlannerParams& params);

/// Planner parameter variant `v`: bit 0 selects kEarliestCompletion,
/// bit 1 kFastestFirst, bit 2 kCircuit, bit 3 cross pairing.  Variants
/// 0-7 sweep every ResourceChoice x PairOrder x ChannelModel.
[[nodiscard]] core::PlannerParams params_variant(std::uint64_t v);

}  // namespace nocsched::support
