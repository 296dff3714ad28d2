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

/// A random system whose sessions share boundaries: 1-2 cores, each
/// copied 3-7 more times (same scan chains, terminals and patterns, a
/// power of its own), and 4-6 reused processors of one kind, on a
/// 1x1..2x2 mesh.  Twins started at one instant from like endpoints end
/// together, and the small mesh puts most cores on an endpoint's router
/// (zero-hop legs).
[[nodiscard]] core::SystemModel coincident_system(Rng& rng, const core::PlannerParams& params);

/// Planner parameter variant `v`: bit 0 selects kEarliestCompletion,
/// bit 1 kFastestFirst, bit 2 kCircuit, bit 3 cross pairing.  Variants
/// 0-7 sweep every ResourceChoice x PairOrder x ChannelModel.
[[nodiscard]] core::PlannerParams params_variant(std::uint64_t v);

}  // namespace nocsched::support
