#include "core/pair_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/placement.hpp"
#include "itc02/builtin.hpp"
#include "itc02/random_soc.hpp"
#include "noc/fault.hpp"

namespace nocsched::core {
namespace {

SystemModel random_system(Rng& rng) {
  itc02::RandomSocSpec spec;
  spec.min_cores = 2;
  spec.max_cores = 10;
  spec.max_scan_flops = 1200;
  spec.max_patterns = 100;
  itc02::Soc soc = itc02::random_soc(rng, spec);
  const int procs = static_cast<int>(rng.below(4));
  for (int i = 1; i <= procs; ++i) {
    const auto kind =
        rng.chance(0.5) ? itc02::ProcessorKind::kLeon : itc02::ProcessorKind::kPlasma;
    soc.modules.push_back(
        itc02::processor_module(kind, static_cast<int>(soc.modules.size()) + 1, i));
  }
  itc02::validate(soc);
  const int cols = static_cast<int>(2 + rng.below(3));
  const int rows = static_cast<int>(2 + rng.below(3));
  noc::Mesh mesh(cols, rows);
  auto placement = default_placement(soc, mesh);
  const noc::RouterId in = default_ate_input(mesh);
  const noc::RouterId out = default_ate_output(mesh);
  PlannerParams params = PlannerParams::paper();
  params.allow_cross_pairing = rng.chance(0.5);
  return SystemModel(std::move(soc), std::move(mesh), std::move(placement), in, out, params);
}

noc::FaultSet random_faults(const SystemModel& sys, Rng& rng) {
  noc::FaultSet faults;
  const std::uint64_t links = rng.below(3);
  for (std::uint64_t i = 0; i < links && sys.mesh().channel_count() > 0; ++i) {
    faults.fail_channel(static_cast<noc::ChannelId>(
        rng.below(static_cast<std::uint64_t>(sys.mesh().channel_count()))));
  }
  if (rng.chance(0.25)) {
    faults.fail_router(static_cast<noc::RouterId>(
        rng.below(static_cast<std::uint64_t>(sys.mesh().router_count()))));
  }
  const std::vector<int> procs = sys.soc().processor_ids();
  if (!procs.empty() && rng.chance(0.5)) {
    faults.fail_processor(procs[rng.below(procs.size())]);
  }
  return faults;
}

/// The tentpole property: the incremental path must be bit-identical to
/// the from-scratch degraded build, and fault-aware pairs must never
/// cross dead silicon.
void expect_apply_faults_matches_scratch(const SystemModel& sys, const PairTable& pristine,
                                         const noc::FaultSet& faults) {
  const PairTable scratch(sys, faults);
  PairTable incremental = pristine;
  incremental.apply_faults(sys, faults);
  EXPECT_EQ(incremental, scratch) << "faults: " << faults.describe();

  for (const itc02::Module& m : sys.soc().modules) {
    if (m.is_processor && faults.processor_failed(m.id)) {
      EXPECT_FALSE(scratch.has_pairs(m.id)) << "dead processor " << m.id << " kept pairs";
    }
    for (const PairChoice& p : scratch.pairs(m.id)) {
      for (const auto* path : {&p.plan.path_in, &p.plan.path_out}) {
        for (noc::ChannelId c : *path) {
          EXPECT_TRUE(faults.channel_usable(sys.mesh(), c))
              << "module " << m.id << " pair crosses failed channel " << c;
        }
      }
      for (const std::size_t ep : {p.source, p.sink}) {
        const Endpoint& e = sys.endpoints()[ep];
        EXPECT_FALSE(e.is_processor() && faults.processor_failed(e.processor_module))
            << "module " << m.id << " paired with dead processor";
      }
    }
  }
}

TEST(PairTableFaults, EmptyFaultSetIsIdentity) {
  const SystemModel sys =
      SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 4, PlannerParams::paper());
  const PairTable pristine(sys);
  PairTable copy = pristine;
  EXPECT_EQ(copy.apply_faults(sys, noc::FaultSet{}), 0u);
  EXPECT_EQ(copy, pristine);
  EXPECT_EQ(PairTable(sys, noc::FaultSet{}), pristine);
}

TEST(PairTableFaults, ApplyMatchesScratchOnPaperSystems) {
  for (const std::string& soc : itc02::builtin_names()) {
    const SystemModel sys =
        SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, 4, PlannerParams::paper());
    const PairTable pristine(sys);
    Rng rng(0xFA);
    for (int trial = 0; trial < 25; ++trial) {
      expect_apply_faults_matches_scratch(sys, pristine, random_faults(sys, rng));
    }
  }
}

TEST(PairTableFaults, DeadProcessorDropsServiceAndSelfTest) {
  const SystemModel sys =
      SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 2, PlannerParams::paper());
  const std::vector<int> procs = sys.soc().processor_ids();
  ASSERT_EQ(procs.size(), 2u);
  noc::FaultSet faults;
  faults.fail_processor(procs[0]);
  PairTable table(sys);
  table.apply_faults(sys, faults);
  EXPECT_FALSE(table.has_pairs(procs[0]));
  EXPECT_TRUE(table.has_pairs(procs[1]));
  for (const itc02::Module& m : sys.soc().modules) {
    for (const PairChoice& p : table.pairs(m.id)) {
      for (const std::size_t ep : {p.source, p.sink}) {
        const Endpoint& e = sys.endpoints()[ep];
        EXPECT_FALSE(e.is_processor() && e.processor_module == procs[0]);
      }
    }
  }
}

TEST(PairTableFaults, GrowingFaultSetsComposeIncrementally) {
  const SystemModel sys =
      SystemModel::paper_system("p22810", itc02::ProcessorKind::kLeon, 4,
                                PlannerParams::paper());
  const PairTable pristine(sys);
  Rng rng(0x600D);
  for (int trial = 0; trial < 10; ++trial) {
    const noc::FaultSet first = random_faults(sys, rng);
    noc::FaultSet both = first;
    for (noc::ChannelId c = 0; c < sys.mesh().channel_count(); ++c) {
      if (rng.chance(0.05)) both.fail_channel(c);
    }
    // pristine -> first -> both must land exactly where pristine -> both
    // and a from-scratch build of `both` land.
    PairTable stepwise = pristine;
    stepwise.apply_faults(sys, first);
    stepwise.apply_faults(sys, both);
    EXPECT_EQ(stepwise, PairTable(sys, both)) << both.describe();
  }
}

/// `count` more random failed links on top of `base`.
noc::FaultSet with_random_links(const SystemModel& sys, noc::FaultSet base, std::uint64_t count,
                                Rng& rng) {
  for (std::uint64_t i = 0; i < count; ++i) {
    base.fail_channel(static_cast<noc::ChannelId>(
        rng.below(static_cast<std::uint64_t>(sys.mesh().channel_count()))));
  }
  return base;
}

std::size_t pair_count(const SystemModel& sys, const PairTable& table) {
  std::size_t n = 0;
  for (const itc02::Module& m : sys.soc().modules) n += table.pairs(m.id).size();
  return n;
}

TEST(PairTableFaults, CircuitTablesWithholdSharedLegPairsAndComposeIncrementally) {
  // Under kCircuit a detour whose two legs cross one directed channel is
  // withheld.  A later fault can move that detour, so a module that
  // withheld a pair is re-enumerated by every apply_faults: chained
  // applies must still land on the from-scratch table.  Multi-link
  // fault sets on the builtin systems force detours.
  std::size_t withheld_first = 0;
  std::size_t withheld_both = 0;
  for (const std::string& soc : itc02::builtin_names()) {
    for (const bool cross : {false, true}) {
      PlannerParams params = PlannerParams::paper();
      params.channel_model = ChannelModel::kCircuit;
      params.allow_cross_pairing = cross;
      const SystemModel sys =
          SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, 4, params);
      PlannerParams shared = params;
      shared.channel_model = ChannelModel::kMultiplexed;
      const SystemModel multiplexed =
          SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, 4, shared);
      const PairTable pristine(sys);
      Rng rng(0xC1C0);
      for (int trial = 0; trial < 30; ++trial) {
        const noc::FaultSet first = with_random_links(sys, {}, 3 + rng.below(6), rng);
        const noc::FaultSet both = with_random_links(sys, first, 1 + rng.below(4), rng);
        SCOPED_TRACE(soc + " cross " + std::to_string(cross) + " " + both.describe());
        const PairTable scratch_first(sys, first);
        const PairTable scratch_both(sys, both);
        PairTable stepwise = pristine;
        stepwise.apply_faults(sys, first);
        EXPECT_EQ(stepwise, scratch_first);
        stepwise.apply_faults(sys, both);
        EXPECT_EQ(stepwise, scratch_both);
        for (const itc02::Module& m : sys.soc().modules) {
          for (const PairChoice& p : scratch_both.pairs(m.id)) {
            for (const noc::ChannelId c : p.plan.path_in) {
              EXPECT_EQ(std::count(p.plan.path_out.begin(), p.plan.path_out.end(), c), 0)
                  << "module " << m.id << " holds channel " << c << " on both legs";
            }
          }
        }
        // The multiplexed table offers every routable pair; the
        // difference is what the circuit table withheld.
        withheld_first +=
            pair_count(multiplexed, PairTable(multiplexed, first)) - pair_count(sys, scratch_first);
        withheld_both +=
            pair_count(multiplexed, PairTable(multiplexed, both)) - pair_count(sys, scratch_both);
      }
    }
  }
  // The fixed seed withholds 275 and 500.
  EXPECT_GE(withheld_first, 100u);
  EXPECT_GE(withheld_both, 200u);
}

class PairTableFaultProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PairTableFaultProperties, ApplyMatchesScratchOnRandomSystems) {
  Rng rng(GetParam());
  const SystemModel sys = random_system(rng);
  const PairTable pristine(sys);
  for (int trial = 0; trial < 8; ++trial) {
    expect_apply_faults_matches_scratch(sys, pristine, random_faults(sys, rng));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairTableFaultProperties,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace nocsched::core
