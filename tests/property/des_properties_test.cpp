// Property suite for the discrete-event replay: for *any* valid plan on
// any well-formed random system, the simulated execution must stay
// conservative with respect to the analytical model and must never
// break the validator's resource/power invariants in observed time.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/interval_set.hpp"
#include "core/pair_table.hpp"
#include "core/scheduler.hpp"
#include "des/replay.hpp"
#include "itc02/random_soc.hpp"
#include "sim/cross_check.hpp"
#include "sim/validate.hpp"

namespace nocsched {
namespace {

core::SystemModel random_system(Rng& rng, const core::PlannerParams& params) {
  itc02::RandomSocSpec spec;
  spec.min_cores = 2;
  spec.max_cores = 12;
  spec.max_scan_flops = 1200;
  spec.max_patterns = 80;
  itc02::Soc soc = itc02::random_soc(rng, spec);
  const int procs = static_cast<int>(rng.below(4));
  for (int i = 1; i <= procs; ++i) {
    const auto kind = rng.chance(0.5) ? itc02::ProcessorKind::kLeon
                                      : itc02::ProcessorKind::kPlasma;
    soc.modules.push_back(
        itc02::processor_module(kind, static_cast<int>(soc.modules.size()) + 1, i));
  }
  itc02::validate(soc);

  const int cols = static_cast<int>(2 + rng.below(4));
  const int rows = static_cast<int>(2 + rng.below(4));
  noc::Mesh mesh(cols, rows);
  auto placement = core::default_placement(soc, mesh);
  const noc::RouterId in = core::default_ate_input(mesh);
  const noc::RouterId out = core::default_ate_output(mesh);
  return core::SystemModel(std::move(soc), std::move(mesh), std::move(placement), in, out,
                           params);
}

class DesProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DesProperties, ReplayNeverViolatesValidatorInvariants) {
  Rng rng(GetParam());
  core::PlannerParams params = core::PlannerParams::paper();
  if (rng.chance(0.3)) params.allow_cross_pairing = true;
  const core::SystemModel sys = random_system(rng, params);
  const double fraction = 0.4 + rng.uniform01() * 0.6;
  power::PowerBudget budget = rng.chance(0.5)
                                  ? power::PowerBudget::fraction_of_total(sys.soc(), fraction)
                                  : power::PowerBudget::unconstrained();
  // Never below the costliest module's cheapest session: every seed
  // then has a feasible plan to replay.
  const core::PairTable pairs(sys);
  for (const itc02::Module& m : sys.soc().modules) {
    budget.limit = std::max(budget.limit, pairs.cheapest_power(m.id));
  }
  const core::Schedule plan = core::plan_tests(sys, budget);
  ASSERT_TRUE(sim::validate(sys, plan).ok());

  const des::SimTrace trace = des::replay(sys, plan);

  // Conservative vs. the plan, session by session.
  ASSERT_EQ(trace.sessions.size(), plan.sessions.size());
  for (const core::Session& planned : plan.sessions) {
    const des::SessionTrace& t = trace.session_for(planned.module_id);
    EXPECT_GE(t.observed_start, planned.start) << "module " << planned.module_id;
    EXPECT_GE(t.observed_end, planned.end) << "module " << planned.module_id;
  }
  EXPECT_GE(trace.observed_makespan, plan.makespan);

  // Resource invariant: one session per endpoint at a time.
  std::vector<IntervalSet> busy(sys.endpoints().size());
  for (const des::SessionTrace& t : trace.sessions) {
    const Interval iv{t.observed_start, t.observed_end};
    EXPECT_TRUE(sim::book_session_resources(busy, t.source_resource, t.sink_resource, iv)
                    .empty())
        << "seed " << GetParam() << ": a resource is double-booked at module "
        << t.module_id;
  }

  // Power invariant: the admission control never let the live draw
  // exceed the budget, and the recorded peak matches a recomputation
  // from the observed intervals alone.
  EXPECT_TRUE(power::within_budget(trace.peak_power, budget.limit));
  EXPECT_NEAR(des::observed_peak_power(trace), trace.peak_power, 1e-9);

  // Channel invariant: a directed channel carries one worm at a time.
  for (const des::ChannelUse& c : trace.channels) {
    EXPECT_LE(c.busy_cycles, trace.observed_makespan);
  }

  // The structural cross-check (with contention tolerance opened up —
  // tiny random meshes can be extremely congested) must find no hard
  // inconsistencies.
  sim::CrossCheckOptions lenient;
  lenient.max_stretch = 50.0;
  lenient.slack_cycles = 1u << 24;
  const sim::CrossCheckReport report = sim::cross_check(sys, plan, trace, lenient);
  EXPECT_TRUE(report.ok()) << "seed " << GetParam() << ": "
                           << (report.mismatches.empty() ? "" : report.mismatches[0]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DesProperties, ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace nocsched
