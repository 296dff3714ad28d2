#pragma once
// Result types of the test planner.

#include <cstdint>
#include <vector>

#include "noc/mesh.hpp"

namespace nocsched::core {

/// One committed test session.
struct Session {
  int module_id = 0;
  int source_resource = -1;  ///< index into SystemModel::endpoints()
  int sink_resource = -1;
  std::uint64_t start = 0;
  std::uint64_t end = 0;  ///< exclusive
  double power = 0.0;
  std::vector<noc::ChannelId> path_in;
  std::vector<noc::ChannelId> path_out;
  double bandwidth_in = 0.0;   ///< channel occupancy of the stimulus stream
  double bandwidth_out = 0.0;  ///< channel occupancy of the response stream

  [[nodiscard]] std::uint64_t duration() const { return end - start; }

  friend bool operator==(const Session&, const Session&) = default;
};

/// A complete test plan for one system.
struct Schedule {
  std::vector<Session> sessions;  ///< sorted by (start, module_id)
  std::uint64_t makespan = 0;     ///< max session end (the system test time)
  double peak_power = 0.0;        ///< max summed draw across the plan
  double power_limit = 0.0;       ///< budget used (infinity = unconstrained)

  /// Session testing `module_id`; throws if none exists.  One linear
  /// scan — build a ScheduleIndex instead of calling this in a loop.
  [[nodiscard]] const Session& session_for(int module_id) const;
};

/// One-pass lookup index over a Schedule: answers Schedule::session_for
/// (identical result, identical error) in O(1) after a single
/// O(sessions) build, instead of one full rescan per call.  The
/// schedule must outlive the index and not be mutated while indexed.
class ScheduleIndex {
 public:
  explicit ScheduleIndex(const Schedule& schedule);

  /// Mirrors Schedule::session_for, including its error on a module
  /// without a session.  When a module id appears more than once (an
  /// invalid schedule bound for the validator), returns the first
  /// session in schedule order, exactly as the linear scan would.
  [[nodiscard]] const Session& session_for(int module_id) const;

 private:
  static constexpr std::uint32_t knone = static_cast<std::uint32_t>(-1);

  const Schedule& schedule_;
  /// module id -> index of its first session; ids outside [0, size)
  /// (none exist in well-formed schedules) fall back to a linear scan.
  std::vector<std::uint32_t> by_module_;
};

}  // namespace nocsched::core
