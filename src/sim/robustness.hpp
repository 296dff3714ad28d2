#pragma once
// Schedule robustness under faults.
//
// Given a plan made for the pristine system, its pristine replay (the
// baseline the degraded run is judged against, so ordinary replay
// conservatism never counts as fault damage), and a FaultSet describing
// what died, this module replays the plan on the degraded mesh and
// classifies every planned session:
//
//   * unaffected — ran with exactly the baseline launch and completion,
//   * delayed    — still ran, but its observed window moved (detour
//                  setup, channel contention on rerouted worms, or
//                  admission waiting behind a delayed neighbour),
//   * unroutable — could not run at all (dead module or endpoint
//                  processor, no surviving route, or its serving
//                  processor lost its own test).
//
// The report carries the paper-level robustness metrics: sessions lost
// and the makespan stretch of what survived.

#include <cstdint>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "core/system_model.hpp"
#include "des/replay.hpp"
#include "noc/fault.hpp"

namespace nocsched::sim {

enum class SessionFate { kUnaffected, kDelayed, kUnroutable };

/// "unaffected" | "delayed" | "unroutable".
[[nodiscard]] std::string_view to_string(SessionFate fate);

struct SessionRobustness {
  int module_id = 0;
  SessionFate fate = SessionFate::kUnaffected;
  std::uint64_t baseline_start = 0;  ///< pristine-replay observed window
  std::uint64_t baseline_end = 0;
  std::uint64_t degraded_start = 0;  ///< 0/0 when unroutable
  std::uint64_t degraded_end = 0;
  std::int64_t delay = 0;  ///< degraded_end - baseline_end (0 when unroutable)
  std::string reason;      ///< why unroutable (empty otherwise)
};

struct RobustnessReport {
  std::vector<SessionRobustness> sessions;  ///< ascending module id
  std::uint64_t planned_makespan = 0;
  std::uint64_t baseline_makespan = 0;  ///< pristine replay, observed
  std::uint64_t degraded_makespan = 0;  ///< degraded replay, observed
  /// degraded / baseline observed makespan (0 for empty baselines; a
  /// degraded mesh that lost its longest sessions can stretch < 1).
  double makespan_stretch = 0.0;
  std::size_t unaffected = 0;
  std::size_t delayed = 0;
  std::size_t lost = 0;  ///< unroutable sessions
};

/// Replay `plan` under `faults` and line it up against `baseline`, the
/// pristine replay of the same plan (des::replay).  The caller owns the
/// baseline: a fault sweep assesses many scenarios against one
/// unchanged baseline and must not re-simulate it per scenario.
[[nodiscard]] RobustnessReport assess_robustness(const core::SystemModel& sys,
                                                 const core::Schedule& plan,
                                                 const noc::FaultSet& faults,
                                                 const des::SimTrace& baseline);

}  // namespace nocsched::sim
