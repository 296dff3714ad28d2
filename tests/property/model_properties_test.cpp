// Property suite over the substrate models: wrapper balancing, session
// cost monotonicity, and cross-checks of fast data structures against
// naive implementations.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/session_model.hpp"
#include "itc02/random_soc.hpp"
#include "noc/routing.hpp"
#include "wrapper/wrapper.hpp"

namespace nocsched {
namespace {

class ModelProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelProperties, WrapperSpreadingMatchesNaiveGreedy) {
  Rng rng(GetParam());
  // Rebuild design_wrapper's cell distribution with a naive one-cell-
  // at-a-time greedy and compare the resulting maxima.
  const auto chains = 1 + rng.below(8);
  std::vector<std::uint32_t> internal;
  const auto n_internal = rng.below(12);
  for (std::uint64_t i = 0; i < n_internal; ++i) {
    internal.push_back(static_cast<std::uint32_t>(1 + rng.below(150)));
  }
  const auto inputs = static_cast<std::uint32_t>(rng.below(300));
  const auto outputs = static_cast<std::uint32_t>(rng.below(300));

  itc02::Module m;
  m.id = 1;
  m.name = "m";
  m.inputs = inputs == 0 && internal.empty() ? 1 : inputs;  // keep testable
  m.outputs = outputs;
  m.scan_chains = internal;
  m.tests = {{10, !internal.empty()}};
  m.test_power = 1.0;

  const wrapper::WrapperConfig cfg =
      wrapper::design_wrapper(m, static_cast<std::uint32_t>(chains));

  // Naive reference: LPT for internal chains, then one cell at a time.
  std::vector<std::uint64_t> in_chains(chains, 0);
  std::vector<std::uint64_t> out_chains(chains, 0);
  std::vector<std::uint32_t> sorted = internal;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  for (const std::uint32_t len : sorted) {
    const auto tgt = static_cast<std::size_t>(
        std::min_element(in_chains.begin(), in_chains.end()) - in_chains.begin());
    in_chains[tgt] += len;
    out_chains[tgt] += len;
  }
  for (std::uint32_t i = 0; i < m.inputs + m.bidirs; ++i) {
    *std::min_element(in_chains.begin(), in_chains.end()) += 1;
  }
  for (std::uint32_t i = 0; i < m.outputs + m.bidirs; ++i) {
    *std::min_element(out_chains.begin(), out_chains.end()) += 1;
  }
  EXPECT_EQ(cfg.scan_in_length, *std::max_element(in_chains.begin(), in_chains.end()));
  EXPECT_EQ(cfg.scan_out_length, *std::max_element(out_chains.begin(), out_chains.end()));
}

TEST_P(ModelProperties, WrapperLengthMonotoneInChainCount) {
  Rng rng(GetParam() ^ 0x1111);
  itc02::RandomSocSpec spec;
  spec.min_cores = 1;
  spec.max_cores = 1;
  const itc02::Soc soc = itc02::random_soc(rng, spec);
  std::uint64_t prev = UINT64_MAX;
  for (std::uint32_t chains = 1; chains <= 32; chains *= 2) {
    const std::uint64_t cycles = wrapper::module_test_cycles(soc.modules[0], chains);
    EXPECT_LE(cycles, prev);
    prev = cycles;
  }
}

TEST_P(ModelProperties, XyRoutesStayInsideRandomMeshes) {
  Rng rng(GetParam() ^ 0x2222);
  const int cols = static_cast<int>(1 + rng.below(7));
  const int rows = static_cast<int>(1 + rng.below(7));
  const noc::Mesh mesh(cols, rows);
  for (int i = 0; i < 50; ++i) {
    const auto a = static_cast<noc::RouterId>(rng.below(
        static_cast<std::uint64_t>(mesh.router_count())));
    const auto b = static_cast<noc::RouterId>(rng.below(
        static_cast<std::uint64_t>(mesh.router_count())));
    const auto route = noc::xy_route(mesh, a, b);
    EXPECT_EQ(route.size(), static_cast<std::size_t>(mesh.hop_count(a, b)));
    noc::RouterId at = a;
    for (const noc::ChannelId c : route) {
      EXPECT_EQ(mesh.channel_source(c), at);
      at = mesh.channel_target(c);
    }
    EXPECT_EQ(at, b);
  }
}

TEST_P(ModelProperties, SessionDurationMonotoneInDistance) {
  // Pushing the source farther away (more hops) never shortens a
  // session: setup grows with path length, steady state is unchanged.
  Rng rng(GetParam() ^ 0x3333);
  itc02::Soc soc;
  soc.name = "one";
  itc02::Module m;
  m.id = 1;
  m.name = "core";
  m.inputs = static_cast<std::uint32_t>(1 + rng.below(64));
  m.outputs = static_cast<std::uint32_t>(1 + rng.below(64));
  m.scan_chains = {static_cast<std::uint32_t>(1 + rng.below(400))};
  m.tests = {{static_cast<std::uint32_t>(1 + rng.below(60)), true}};
  m.test_power = 10.0;
  soc.modules = {m};

  const noc::Mesh mesh(6, 1);
  std::vector<core::CorePlacement> placement = {{1, mesh.router_at(0, 0)}};
  const core::SystemModel sys(soc, mesh, placement, mesh.router_at(1, 0),
                              mesh.router_at(5, 0), core::PlannerParams::paper());
  std::uint64_t prev = 0;
  for (int x = 1; x < 6; ++x) {
    core::Endpoint src{core::EndpointKind::kAteInput, mesh.router_at(x, 0), -1, {}};
    const core::SessionPlan plan = core::plan_session(sys, 1, src, sys.endpoints()[1]).value();
    EXPECT_GE(plan.duration, prev);
    prev = plan.duration;
  }
}

TEST_P(ModelProperties, CpuRatesOnlySlowSessionsDown) {
  Rng rng(GetParam() ^ 0x4444);
  itc02::RandomSocSpec spec;
  spec.min_cores = 2;
  spec.max_cores = 6;
  itc02::Soc soc = itc02::random_soc(rng, spec);
  soc.modules.push_back(
      itc02::processor_module(itc02::ProcessorKind::kLeon,
                              static_cast<int>(soc.modules.size()) + 1, 1));
  itc02::validate(soc);
  const noc::Mesh mesh(3, 3);
  const core::SystemModel sys(soc, mesh, core::default_placement(soc, mesh), 0, 8,
                              core::PlannerParams::paper());
  const core::Endpoint& cpu = sys.endpoints()[2];
  for (const itc02::Module& m : sys.soc().modules) {
    if (m.is_processor) continue;
    const std::uint64_t ate =
        core::plan_session(sys, m.id, sys.endpoints()[0], sys.endpoints()[1]).value().duration;
    const std::uint64_t on_cpu = core::plan_session(sys, m.id, cpu, cpu).value().duration;
    // Hop-count differences can shave a few setup cycles, so compare
    // with a small allowance.
    EXPECT_GE(on_cpu + 64, ate) << m.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelProperties,
                         ::testing::Range<std::uint64_t>(1, 31));

}  // namespace
}  // namespace nocsched
