// Allocation guard for the validator: once a thread has validated a
// plan, validating a valid fault-free plan again on that thread
// allocates nothing.  The binary replaces the global operator new with
// a counting one, so it runs on its own, outside the gtest suites.
// Exit status 0 = every checked validation allocated nothing.

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/scheduler.hpp"
#include "core/system_model.hpp"
#include "power/budget.hpp"
#include "sim/validate.hpp"

namespace {
std::atomic<std::size_t> allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

int main() {
  using namespace nocsched;
  struct Plan {
    const char* name;
    const core::SystemModel* sys;
    double power;  // fraction of the total test power; 0: no limit
    core::Schedule schedule;
  };
  std::vector<core::SystemModel> systems;
  systems.reserve(3);
  for (const char* soc : {"d695", "p22810", "p93791"}) {
    systems.push_back(core::SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, 4,
                                                      core::PlannerParams::paper()));
  }
  std::vector<Plan> plans;
  for (const core::SystemModel& sys : systems) {
    for (const double power : {0.0, 0.6}) {
      const power::PowerBudget budget =
          power > 0 ? power::PowerBudget::fraction_of_total(sys.soc(), power)
                    : power::PowerBudget::unconstrained();
      plans.push_back(Plan{sys.soc().name.c_str(), &sys, power, core::plan_tests(sys, budget)});
    }
  }

  int failures = 0;
  // The first pass warms this thread's scratch; the second must not
  // allocate, plan after plan, as a server validating a mix would.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Plan& p : plans) {
      const std::size_t before = allocations.load(std::memory_order_relaxed);
      const sim::ValidationReport report = sim::validate(*p.sys, p.schedule);
      const std::size_t allocated = allocations.load(std::memory_order_relaxed) - before;
      if (!report.ok()) {
        std::printf("FAIL: %s at %.0f%% power: the plan does not validate\n", p.name,
                    p.power * 100);
        ++failures;
      } else if (pass == 1 && allocated != 0) {
        std::printf("FAIL: %s at %.0f%% power: a warm validate allocated %zu times\n", p.name,
                    p.power * 100, allocated);
        ++failures;
      } else if (pass == 1) {
        std::printf("ok: %s at %.0f%% power: a warm validate allocated nothing\n", p.name,
                    p.power * 100);
      }
    }
  }
  return failures == 0 ? 0 : 1;
}
