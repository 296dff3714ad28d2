#include "core/schedule.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "common/error.hpp"
#include "core/scheduler.hpp"
#include "core/system_model.hpp"
#include "power/budget.hpp"

namespace nocsched::core {
namespace {

// Regression lock: ScheduleIndex answers every query exactly as the
// linear Schedule::session_for does — same sessions, same error.

Schedule random_schedule(std::mt19937_64& rng, int modules, int resources) {
  Schedule s;
  std::uniform_int_distribution<int> module_dist(0, modules - 1);
  std::uniform_int_distribution<int> resource_dist(0, resources - 1);
  std::uniform_int_distribution<std::uint64_t> start_dist(0, 500);
  std::uniform_int_distribution<std::uint64_t> len_dist(1, 50);
  const int n = module_dist(rng) + 1;
  for (int i = 0; i < n; ++i) {
    Session sess;
    sess.module_id = module_dist(rng);
    sess.source_resource = resource_dist(rng);
    // Sometimes a processor plays both roles.
    sess.sink_resource = (i % 3 == 0) ? sess.source_resource : resource_dist(rng);
    sess.start = start_dist(rng);
    sess.end = sess.start + len_dist(rng);
    s.sessions.push_back(sess);
  }
  return s;
}

TEST(ScheduleIndex, MatchesLinearScanOnRandomSchedules) {
  std::mt19937_64 rng(0xD4u);
  for (int trial = 0; trial < 200; ++trial) {
    const int modules = 1 + static_cast<int>(rng() % 20);
    const int resources = 1 + static_cast<int>(rng() % 10);
    const Schedule s = random_schedule(rng, modules, resources);
    const ScheduleIndex index(s);
    for (int id = -2; id < modules + 2; ++id) {
      bool linear_found = true;
      const Session* linear = nullptr;
      try {
        linear = &s.session_for(id);
      } catch (const Error&) {
        linear_found = false;
      }
      if (linear_found) {
        // Same object: duplicates must resolve to the first session in
        // schedule order, exactly as the scan does.
        EXPECT_EQ(&index.session_for(id), linear);
      } else {
        EXPECT_THROW((void)index.session_for(id), Error);
      }
    }
  }
}

TEST(ScheduleIndex, MatchesLinearScanOnPlannedSchedule) {
  const SystemModel sys =
      SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 4, PlannerParams::paper());
  const Schedule s = plan_tests(sys, power::PowerBudget::unconstrained());
  const ScheduleIndex index(s);
  for (const itc02::Module& m : sys.soc().modules) {
    EXPECT_EQ(&index.session_for(m.id), &s.session_for(m.id));
  }
  EXPECT_THROW((void)index.session_for(9999), Error);
}

TEST(ScheduleIndex, EmptySchedule) {
  const Schedule s;
  const ScheduleIndex index(s);
  EXPECT_THROW((void)index.session_for(0), Error);
}

}  // namespace
}  // namespace nocsched::core
