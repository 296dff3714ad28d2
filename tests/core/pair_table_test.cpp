#include "core/pair_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/placement.hpp"
#include "itc02/random_soc.hpp"

namespace nocsched::core {
namespace {

/// Reference enumeration: the planner's original per-call pair scan
/// (filter every endpoint pair, then sort nearest-first).  The table
/// must reproduce this sequence exactly — planner decisions, and with
/// them every golden schedule, hang off this ordering.
std::vector<std::pair<std::size_t, std::size_t>> legacy_pairs(const SystemModel& sys,
                                                              int module_id) {
  struct Entry {
    int hops;
    std::size_t s, k;
  };
  std::vector<Entry> entries;
  const std::vector<Endpoint>& eps = sys.endpoints();
  const noc::RouterId at = sys.router_of(module_id);
  const bool cross = sys.params().allow_cross_pairing;
  for (std::size_t s = 0; s < eps.size(); ++s) {
    const Endpoint& src = eps[s];
    if (!src.can_source()) continue;
    if (src.is_processor() && src.processor_module == module_id) continue;
    if (src.is_processor() && !fits_processor_memory(sys, module_id, src.cpu)) continue;
    for (std::size_t k = 0; k < eps.size(); ++k) {
      const Endpoint& snk = eps[k];
      if (!snk.can_sink()) continue;
      if (snk.is_processor() && snk.processor_module == module_id) continue;
      if (snk.is_processor() && !fits_processor_memory(sys, module_id, snk.cpu)) continue;
      if (s == k && !src.is_processor()) continue;
      if (!cross && s != k && (src.is_processor() || snk.is_processor())) continue;
      entries.push_back({sys.mesh().hop_count(src.router, at) +
                             sys.mesh().hop_count(at, snk.router),
                         s, k});
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.hops != b.hops) return a.hops < b.hops;
    if (a.s != b.s) return a.s < b.s;
    return a.k < b.k;
  });
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve(entries.size());
  for (const Entry& e : entries) out.emplace_back(e.s, e.k);
  return out;
}

void expect_table_matches_legacy(const SystemModel& sys) {
  const PairTable table(sys);
  for (const itc02::Module& m : sys.soc().modules) {
    const auto expected = legacy_pairs(sys, m.id);
    const auto pairs = table.pairs(m.id);
    ASSERT_EQ(pairs.size(), expected.size()) << "module " << m.id;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(pairs[i].source, expected[i].first) << "module " << m.id << " pair " << i;
      EXPECT_EQ(pairs[i].sink, expected[i].second) << "module " << m.id << " pair " << i;
      // The attached plan must be the exact plan_session result.
      const SessionPlan fresh = plan_session(sys, m.id, sys.endpoints()[pairs[i].source],
                                             sys.endpoints()[pairs[i].sink]).value();
      EXPECT_EQ(pairs[i].plan.duration, fresh.duration);
      EXPECT_EQ(pairs[i].plan.power, fresh.power);
      EXPECT_EQ(pairs[i].plan.path_in, fresh.path_in);
      EXPECT_EQ(pairs[i].plan.path_out, fresh.path_out);
      EXPECT_EQ(pairs[i].plan.bandwidth_in, fresh.bandwidth_in);
      EXPECT_EQ(pairs[i].plan.bandwidth_out, fresh.bandwidth_out);
    }
  }
}

TEST(PairTable, MatchesLegacyEnumerationOnPaperSystems) {
  for (const std::string& soc : itc02::builtin_names()) {
    for (const auto kind : {itc02::ProcessorKind::kLeon, itc02::ProcessorKind::kPlasma}) {
      const SystemModel sys =
          SystemModel::paper_system(soc, kind, 4, PlannerParams::paper());
      expect_table_matches_legacy(sys);
    }
  }
}

TEST(PairTable, MatchesLegacyEnumerationWithCrossPairing) {
  PlannerParams params = PlannerParams::paper();
  params.allow_cross_pairing = true;
  const SystemModel sys =
      SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 4, params);
  expect_table_matches_legacy(sys);
}

TEST(PairTable, CheapestPowerIsMinimumOverPairs) {
  const SystemModel sys =
      SystemModel::paper_system("p22810", itc02::ProcessorKind::kLeon, 4,
                                PlannerParams::paper());
  const PairTable table(sys);
  for (const itc02::Module& m : sys.soc().modules) {
    const auto pairs = table.pairs(m.id);
    ASSERT_FALSE(pairs.empty());
    double min_power = pairs[0].plan.power;
    for (const PairChoice& pc : pairs) min_power = std::min(min_power, pc.plan.power);
    EXPECT_EQ(table.cheapest_power(m.id), min_power);
  }
}

TEST(PairTable, RejectsUnknownModuleIds) {
  const SystemModel sys =
      SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 2,
                                PlannerParams::paper());
  const PairTable table(sys);
  EXPECT_THROW((void)table.pairs(0), Error);
  EXPECT_THROW((void)table.pairs(-3), Error);
  EXPECT_THROW((void)table.pairs(static_cast<int>(sys.soc().modules.size()) + 1), Error);
}

class PairTableProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PairTableProperties, MatchesLegacyEnumerationOnRandomSystems) {
  Rng rng(GetParam());
  itc02::RandomSocSpec spec;
  spec.min_cores = 2;
  spec.max_cores = 12;
  spec.max_scan_flops = 1500;
  spec.max_patterns = 120;
  itc02::Soc soc = itc02::random_soc(rng, spec);
  const int procs = static_cast<int>(rng.below(4));
  for (int i = 1; i <= procs; ++i) {
    const auto kind =
        rng.chance(0.5) ? itc02::ProcessorKind::kLeon : itc02::ProcessorKind::kPlasma;
    soc.modules.push_back(
        itc02::processor_module(kind, static_cast<int>(soc.modules.size()) + 1, i));
  }
  itc02::validate(soc);

  const int cols = static_cast<int>(2 + rng.below(4));
  const int rows = static_cast<int>(2 + rng.below(4));
  noc::Mesh mesh(cols, rows);
  auto placement = default_placement(soc, mesh);
  const noc::RouterId in = default_ate_input(mesh);
  const noc::RouterId out = default_ate_output(mesh);
  PlannerParams params = PlannerParams::paper();
  params.allow_cross_pairing = rng.chance(0.5);
  const SystemModel sys(std::move(soc), std::move(mesh), std::move(placement), in, out, params);
  expect_table_matches_legacy(sys);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairTableProperties, ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace nocsched::core
