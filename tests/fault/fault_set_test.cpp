#include "noc/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "noc/routing.hpp"

namespace nocsched::noc {
namespace {

/// Reference BFS distance over the surviving graph (no path choice —
/// just the hop count a shortest path must have).
int reference_distance(const Mesh& mesh, const FaultSet& faults, RouterId from, RouterId to) {
  if (faults.router_failed(from) || faults.router_failed(to)) return -1;
  std::vector<int> dist(static_cast<std::size_t>(mesh.router_count()), -1);
  dist[static_cast<std::size_t>(from)] = 0;
  std::deque<RouterId> queue{from};
  while (!queue.empty()) {
    const RouterId r = queue.front();
    queue.pop_front();
    for (ChannelId c = 0; c < mesh.channel_count(); ++c) {
      if (mesh.channel_source(c) != r || !faults.channel_usable(mesh, c)) continue;
      const RouterId next = mesh.channel_target(c);
      if (dist[static_cast<std::size_t>(next)] != -1) continue;
      dist[static_cast<std::size_t>(next)] = dist[static_cast<std::size_t>(r)] + 1;
      queue.push_back(next);
    }
  }
  return dist[static_cast<std::size_t>(to)];
}

/// A route must be contiguous from `from` to `to` and never touch a
/// failed channel or router.
void expect_route_well_formed(const Mesh& mesh, const FaultSet& faults, RouterId from,
                              RouterId to, const std::vector<ChannelId>& route) {
  RouterId at = from;
  for (ChannelId c : route) {
    EXPECT_EQ(mesh.channel_source(c), at);
    EXPECT_TRUE(faults.channel_usable(mesh, c)) << "route crosses failed channel " << c;
    EXPECT_FALSE(faults.channel_failed(c));
    EXPECT_FALSE(faults.router_failed(mesh.channel_source(c)));
    EXPECT_FALSE(faults.router_failed(mesh.channel_target(c)));
    at = mesh.channel_target(c);
  }
  EXPECT_EQ(at, to);
}

TEST(FaultSet, QueriesAndDeduplication) {
  FaultSet faults;
  EXPECT_TRUE(faults.empty());
  faults.fail_channel(7);
  faults.fail_channel(3);
  faults.fail_channel(7);  // duplicate
  faults.fail_router(2);
  faults.fail_processor(11);
  EXPECT_FALSE(faults.empty());
  EXPECT_EQ(faults.failed_channels(), (std::vector<ChannelId>{3, 7}));
  EXPECT_TRUE(faults.channel_failed(3));
  EXPECT_TRUE(faults.channel_failed(7));
  EXPECT_FALSE(faults.channel_failed(4));
  EXPECT_TRUE(faults.router_failed(2));
  EXPECT_FALSE(faults.router_failed(0));
  EXPECT_TRUE(faults.processor_failed(11));
  EXPECT_FALSE(faults.processor_failed(12));
  EXPECT_EQ(faults.describe(), "links {3, 7}, routers {2}, procs {11}");

  FaultSet same;
  same.fail_processor(11);
  same.fail_router(2);
  same.fail_channel(3);
  same.fail_channel(7);
  EXPECT_EQ(faults, same);  // insertion order is irrelevant

  EXPECT_THROW(faults.fail_channel(-1), Error);
  EXPECT_THROW(faults.fail_router(-2), Error);
  EXPECT_THROW(faults.fail_processor(0), Error);
}

TEST(FaultSet, FailedRouterKillsTouchingChannels) {
  const Mesh mesh(3, 3);
  FaultSet faults;
  faults.fail_router(mesh.router_at(1, 1));
  for (ChannelId c = 0; c < mesh.channel_count(); ++c) {
    const bool touches = mesh.channel_source(c) == mesh.router_at(1, 1) ||
                         mesh.channel_target(c) == mesh.router_at(1, 1);
    EXPECT_EQ(faults.channel_usable(mesh, c), !touches) << "channel " << c;
  }
}

TEST(FaultRoute, NoFaultsReproducesXY) {
  const Mesh mesh(4, 3);
  const FaultSet none;
  FaultRouter router(mesh, none);
  for (RouterId a = 0; a < mesh.router_count(); ++a) {
    for (RouterId b = 0; b < mesh.router_count(); ++b) {
      const auto route = router.route(a, b);
      ASSERT_TRUE(route.has_value());
      EXPECT_EQ(*route, xy_route(mesh, a, b));
    }
  }
}

TEST(FaultRoute, SameRouterIsEmptyUnlessRouterDied) {
  const Mesh mesh(2, 2);
  const FaultSet none;
  EXPECT_EQ(FaultRouter(mesh, none).route(1, 1), std::vector<ChannelId>{});
  FaultSet faults;
  faults.fail_router(1);
  FaultRouter router(mesh, faults);
  EXPECT_FALSE(router.route(1, 1).has_value());
  EXPECT_FALSE(router.route(0, 1).has_value());
  EXPECT_FALSE(router.route(1, 0).has_value());
}

TEST(FaultRoute, DetoursAroundFailedXYChannel) {
  const Mesh mesh(2, 2);
  const RouterId from = mesh.router_at(0, 0);
  const RouterId to = mesh.router_at(1, 1);
  const std::vector<ChannelId> xy = xy_route(mesh, from, to);
  FaultSet faults;
  faults.fail_channel(xy.front());  // cut the XY route's first hop
  const auto route = FaultRouter(mesh, faults).route(from, to);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->size(), xy.size());  // a 2x2 mesh offers an equal-length detour
  expect_route_well_formed(mesh, faults, from, to, *route);
  // The detour must be YX: down first, then across.
  EXPECT_EQ(mesh.channel_target(route->front()), mesh.router_at(0, 1));
}

TEST(FaultRoute, LineMeshHasNoDetour) {
  const Mesh mesh(4, 1);
  FaultSet faults;
  faults.fail_channel(mesh.channel_between(1, 2));
  FaultRouter router(mesh, faults);
  EXPECT_FALSE(router.route(0, 3).has_value());
  EXPECT_FALSE(router.route(1, 2).has_value());
  // The reverse direction still works (directed channels fail one-way).
  const auto back = router.route(3, 0);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), 3u);
  // And routes that avoid the cut are untouched.
  EXPECT_EQ(router.route(0, 1), xy_route(mesh, 0, 1));
}

TEST(FaultRoute, LowestChannelIdTieBreakIsDeterministic) {
  // 3x3, center router dead: from NW to SE both clockwise and
  // counter-clockwise detours have length 4; the walk must pick the
  // lowest usable channel id at every step, identically from a fresh
  // router and from one whose memo already holds the destination.
  const Mesh mesh(3, 3);
  FaultSet faults;
  faults.fail_router(mesh.router_at(1, 1));
  const RouterId from = mesh.router_at(0, 0);
  const RouterId to = mesh.router_at(2, 2);
  FaultRouter router(mesh, faults);
  const auto a = router.route(from, to);
  const auto b = router.route(from, to);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(a->size(), 4u);
  expect_route_well_formed(mesh, faults, from, to, *a);
  // First hop: of the usable channels leaving (0,0) that shorten the
  // distance, the lowest id wins.  Channel ids are allocated in mesh
  // scan order, so east from (0,0) precedes south from (0,0).
  EXPECT_EQ(mesh.channel_target(a->front()), mesh.router_at(1, 0));
}

TEST(FaultRouteProperty, SurvivingRoutesAreShortestAndFaultFree) {
  Rng rng(0xFA01);
  for (int trial = 0; trial < 200; ++trial) {
    const int cols = static_cast<int>(1 + rng.below(4));
    const int rows = static_cast<int>(1 + rng.below(4));
    const Mesh mesh(cols, rows);
    FaultSet faults;
    const std::uint64_t link_faults = rng.below(4);
    for (std::uint64_t i = 0; i < link_faults && mesh.channel_count() > 0; ++i) {
      faults.fail_channel(
          static_cast<ChannelId>(rng.below(static_cast<std::uint64_t>(mesh.channel_count()))));
    }
    if (rng.chance(0.3)) {
      faults.fail_router(
          static_cast<RouterId>(rng.below(static_cast<std::uint64_t>(mesh.router_count()))));
    }
    FaultRouter router(mesh, faults);
    for (RouterId a = 0; a < mesh.router_count(); ++a) {
      for (RouterId b = 0; b < mesh.router_count(); ++b) {
        const auto route = router.route(a, b);
        const int dist = reference_distance(mesh, faults, a, b);
        if (!route.has_value()) {
          EXPECT_EQ(dist, -1) << "route missing though a path exists (" << a << "->" << b
                              << ", " << faults.describe() << ")";
          continue;
        }
        EXPECT_EQ(static_cast<int>(route->size()), dist)
            << "route is not shortest (" << a << "->" << b << ")";
        expect_route_well_formed(mesh, faults, a, b, *route);
      }
    }
  }
}

TEST(RandomFaultScenario, DeterministicAndWellFormed) {
  const Mesh mesh(4, 4);
  const std::vector<int> procs = {11, 12, 13};
  Rng a(42);
  Rng b(42);
  std::set<std::string> distinct;
  for (int i = 0; i < 50; ++i) {
    const FaultSet fa = random_fault_scenario(mesh, procs, a);
    const FaultSet fb = random_fault_scenario(mesh, procs, b);
    EXPECT_EQ(fa, fb);
    EXPECT_EQ(fa.failed_channels().size(), 1u);
    EXPECT_TRUE(fa.failed_routers().empty());
    EXPECT_LE(fa.failed_processors().size(), 1u);
    distinct.insert(fa.describe());
  }
  EXPECT_GT(distinct.size(), 10u);  // the sweep actually varies

  // A 1x1 mesh has no channels: scenarios degrade to processor-only.
  const Mesh tiny(1, 1);
  Rng c(7);
  const FaultSet ft = random_fault_scenario(tiny, procs, c);
  EXPECT_TRUE(ft.failed_channels().empty());
}

}  // namespace
}  // namespace nocsched::noc
