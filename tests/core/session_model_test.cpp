#include "core/session_model.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace nocsched::core {
namespace {

SystemModel d695_system(int procs) {
  return SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, procs,
                                   PlannerParams::paper());
}

const Endpoint& ate_in(const SystemModel& sys) { return sys.endpoints()[0]; }
const Endpoint& ate_out(const SystemModel& sys) { return sys.endpoints()[1]; }

TEST(PlanSession, AteSessionMatchesHandComputation) {
  const SystemModel sys = d695_system(0);
  // c6288 (module 1): combinational, 32 in / 32 out, 12 patterns, Wp=4:
  // si = so = 8, shift = 9 per pattern; transport: 1 flit each way at
  // FC=1 -> max(9, 1, 1) = 9; tail = min(si,so) = 8.
  const SessionPlan plan = plan_session(sys, 1, ate_in(sys), ate_out(sys)).value();
  const auto h_in = static_cast<std::uint64_t>(plan.path_in.size());
  const auto h_out = static_cast<std::uint64_t>(plan.path_out.size());
  const std::uint64_t setup = (h_in + h_out) * (3 + 1);  // routing + fc per hop
  EXPECT_EQ(plan.duration, setup + 9 * 12 + 8);
}

TEST(PlanSession, PathsFollowXyRoutes) {
  const SystemModel sys = d695_system(2);
  const SessionPlan plan = plan_session(sys, 5, ate_in(sys), ate_out(sys)).value();
  EXPECT_EQ(plan.path_in,
            noc::xy_route(sys.mesh(), ate_in(sys).router, sys.router_of(5)));
  EXPECT_EQ(plan.path_out,
            noc::xy_route(sys.mesh(), sys.router_of(5), ate_out(sys).router));
}

TEST(PlanSession, CpuSessionsAreSlowerThanAte) {
  const SystemModel sys = d695_system(2);
  const Endpoint& cpu = sys.endpoints()[2];
  for (int module : {5, 6, 7, 10}) {  // the scan-heavy d695 cores
    const std::uint64_t ate = plan_session(sys, module, ate_in(sys), ate_out(sys)).value().duration;
    const std::uint64_t on_cpu = plan_session(sys, module, cpu, cpu).value().duration;
    EXPECT_GT(on_cpu, 2 * ate) << "module " << module;
    EXPECT_LT(on_cpu, 6 * ate) << "module " << module;
  }
}

TEST(PlanSession, SameCpuSerializesBothStreams) {
  const SystemModel sys = d695_system(2);
  const Endpoint& cpu = sys.endpoints()[2];
  // Cross sessions only load one direction on the CPU, so using the
  // same CPU for both roles must cost at least as much per pattern.
  const std::uint64_t both = plan_session(sys, 7, cpu, cpu).value().duration;
  const std::uint64_t source_only = plan_session(sys, 7, cpu, ate_out(sys)).value().duration;
  const std::uint64_t sink_only = plan_session(sys, 7, ate_in(sys), cpu).value().duration;
  EXPECT_GT(both, source_only);
  EXPECT_GT(both, sink_only);
}

TEST(PlanSession, PowerAddsCoreTransportAndCpu) {
  const SystemModel sys = d695_system(2);
  const itc02::Module& m = sys.soc().module(5);
  const SessionPlan ate = plan_session(sys, 5, ate_in(sys), ate_out(sys)).value();
  const double hops = static_cast<double>(ate.path_in.size() + ate.path_out.size());
  EXPECT_DOUBLE_EQ(ate.power, m.test_power + hops * sys.params().noc.hop_power);

  const Endpoint& cpu = sys.endpoints()[2];
  const SessionPlan on_cpu = plan_session(sys, 5, cpu, cpu).value();
  const double cpu_hops =
      static_cast<double>(on_cpu.path_in.size() + on_cpu.path_out.size());
  EXPECT_DOUBLE_EQ(on_cpu.power, m.test_power + cpu_hops * sys.params().noc.hop_power +
                                     sys.params().leon.active_power);
}

TEST(PlanSession, CrossCpuPairCountsBothActivePowers) {
  const SystemModel sys = d695_system(2);
  const Endpoint& cpu1 = sys.endpoints()[2];
  const Endpoint& cpu2 = sys.endpoints()[3];
  const SessionPlan plan = plan_session(sys, 7, cpu1, cpu2).value();
  const double hops = static_cast<double>(plan.path_in.size() + plan.path_out.size());
  EXPECT_DOUBLE_EQ(plan.power, sys.soc().module(7).test_power +
                                   hops * sys.params().noc.hop_power +
                                   2.0 * sys.params().leon.active_power);
}

TEST(PlanSession, BandwidthWithinUnitCapacity) {
  const SystemModel sys = d695_system(2);
  for (const itc02::Module& m : sys.soc().modules) {
    const SessionPlan plan = plan_session(sys, m.id, ate_in(sys), ate_out(sys)).value();
    EXPECT_GT(plan.bandwidth_in, 0.0);
    EXPECT_LE(plan.bandwidth_in, 1.0);
    EXPECT_GT(plan.bandwidth_out, 0.0);
    EXPECT_LE(plan.bandwidth_out, 1.0);
  }
}

TEST(PlanSession, CpuFedStreamsUseLessBandwidth) {
  // The CPU injects flits more slowly, so its stream occupies less of
  // each channel than the ATE's.
  const SystemModel sys = d695_system(2);
  const Endpoint& cpu = sys.endpoints()[2];
  const SessionPlan ate = plan_session(sys, 6, ate_in(sys), ate_out(sys)).value();
  const SessionPlan on_cpu = plan_session(sys, 6, cpu, cpu).value();
  EXPECT_LT(on_cpu.bandwidth_in, ate.bandwidth_in);
}

TEST(PlanSession, RoleChecks) {
  const SystemModel sys = d695_system(2);
  EXPECT_THROW(plan_session(sys, 1, ate_out(sys), ate_in(sys)), Error);
  // A processor cannot test itself.
  const Endpoint& cpu = sys.endpoints()[2];
  EXPECT_THROW(plan_session(sys, cpu.processor_module, cpu, cpu), Error);
}

TEST(BistMemory, GrowsWithPatternsTimesResponse) {
  const SystemModel sys = d695_system(0);
  // s35932: 12 patterns x (1728+320 bits -> 256 bytes) = 3072 + overhead.
  const std::uint64_t bytes = bist_memory_bytes(sys, 9, itc02::ProcessorKind::kLeon);
  const std::uint64_t masks = 12 * ((1728 + 320 + 7) / 8);
  EXPECT_GE(bytes, masks);
  EXPECT_LE(bytes, masks + 1024);  // program + parameter block
}

TEST(BistMemory, GatesTheBigD695Cores) {
  const SystemModel sys = d695_system(0);
  // The two biggest test-data cores exceed the Leon's BIST memory;
  // mid-size cores fit (DESIGN.md §2).
  EXPECT_FALSE(fits_processor_memory(sys, 5, itc02::ProcessorKind::kLeon));  // s38584
  EXPECT_FALSE(fits_processor_memory(sys, 6, itc02::ProcessorKind::kLeon));  // s13207
  EXPECT_TRUE(fits_processor_memory(sys, 10, itc02::ProcessorKind::kLeon));  // s38417
  EXPECT_TRUE(fits_processor_memory(sys, 7, itc02::ProcessorKind::kLeon));   // s15850
  EXPECT_TRUE(fits_processor_memory(sys, 1, itc02::ProcessorKind::kLeon));   // c6288
}

TEST(BistMemory, PlasmaIsMoreRestrictive) {
  const SystemModel sys = d695_system(0);
  int leon_ok = 0;
  int plasma_ok = 0;
  for (const itc02::Module& m : sys.soc().modules) {
    leon_ok += fits_processor_memory(sys, m.id, itc02::ProcessorKind::kLeon);
    plasma_ok += fits_processor_memory(sys, m.id, itc02::ProcessorKind::kPlasma);
  }
  EXPECT_LT(plasma_ok, leon_ok);
  EXPECT_GT(plasma_ok, 0);
}

}  // namespace
}  // namespace nocsched::core
