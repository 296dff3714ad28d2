// FaultRouter against the per-call BFS oracle (tests/support): the
// router keeps its surviving graph and each destination's distance
// field between calls, so the order questions arrive in must never
// change an answer.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "noc/fault.hpp"
#include "noc/routing.hpp"
#include "support/fault_route.hpp"

namespace nocsched::noc {
namespace {

/// 0-6 faults, each a random directed channel or a random router.
FaultSet random_faults(const Mesh& mesh, Rng& rng) {
  FaultSet faults;
  const std::uint64_t count = rng.below(7);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (mesh.channel_count() > 0 && rng.chance(0.7)) {
      faults.fail_channel(
          static_cast<ChannelId>(rng.below(static_cast<std::uint64_t>(mesh.channel_count()))));
    } else {
      faults.fail_router(
          static_cast<RouterId>(rng.below(static_cast<std::uint64_t>(mesh.router_count()))));
    }
  }
  return faults;
}

TEST(FaultRouterOracle, EveryPairInShuffledOrderMatchesPerCallBfs) {
  Rng rng(0xFA02);
  int detours = 0;
  int unroutable = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const Mesh mesh(static_cast<int>(1 + rng.below(8)), static_cast<int>(1 + rng.below(8)));
    const FaultSet faults = random_faults(mesh, rng);
    std::vector<std::pair<RouterId, RouterId>> pairs;
    for (RouterId a = 0; a < mesh.router_count(); ++a) {
      for (RouterId b = 0; b < mesh.router_count(); ++b) pairs.emplace_back(a, b);
    }
    FaultRouter router(mesh, faults);
    for (int pass = 0; pass < 2; ++pass) {  // the second pass reads a warm memo
      rng.shuffle(pairs);
      for (const auto& [from, to] : pairs) {
        const auto want = reference_fault_route(mesh, faults, from, to);
        ASSERT_EQ(router.route(from, to), want)
            << mesh.cols() << "x" << mesh.rows() << " " << from << "->" << to << " under "
            << faults.describe() << " (pass " << pass << ")";
        if (pass > 0) continue;
        if (!want) {
          ++unroutable;
        } else if (*want != xy_route(mesh, from, to)) {
          ++detours;
        }
      }
    }
  }
  // The seed exercises both fallbacks, not just the XY fast path.
  EXPECT_GT(detours, 100);
  EXPECT_GT(unroutable, 100);
}

TEST(FaultRouterOracle, UsableMatchesTheFaultSet) {
  Rng rng(0xFA03);
  for (int trial = 0; trial < 50; ++trial) {
    const Mesh mesh(static_cast<int>(1 + rng.below(8)), static_cast<int>(1 + rng.below(8)));
    const FaultSet faults = random_faults(mesh, rng);
    const FaultRouter router(mesh, faults);
    std::vector<ChannelId> all;
    bool all_usable = true;
    for (ChannelId c = 0; c < mesh.channel_count(); ++c) {
      EXPECT_EQ(router.channel_usable(c), faults.channel_usable(mesh, c)) << "channel " << c;
      EXPECT_EQ(router.usable(std::vector<ChannelId>{c}), faults.channel_usable(mesh, c));
      all.push_back(c);
      all_usable = all_usable && faults.channel_usable(mesh, c);
    }
    EXPECT_EQ(router.usable(all), all_usable);
    EXPECT_TRUE(router.usable({}));
  }
}

}  // namespace
}  // namespace nocsched::noc
