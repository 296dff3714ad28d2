#pragma once
// Fault sets and fault-aware routing.
//
// A production test controller must keep working when parts of the
// access mechanism die mid-session: a directed channel, a whole router,
// or a reused embedded processor.  FaultSet records what is broken;
// FaultRouter answers how test data still gets across the degraded
// mesh.  Routing stays byte-reproducible: the XY route is used whenever
// it survives the faults (so fault-free traffic is routed exactly as
// before), and otherwise the unique lexicographically-smallest shortest
// path over the surviving channel graph is taken (BFS distances, then a
// forward walk that always picks the lowest usable channel id that
// still decreases the distance).
//
// A FaultRouter answers for one fault set only, so what it remembers
// between calls (the usable-channel bitmap, the surviving adjacency,
// each destination's BFS distance field) is a pure function of that
// set: a route read from the memo is the route a fresh search would
// walk, whatever order the calls come in.  The memo is never shared —
// each caller builds its own router for one call — so it needs no lock
// and no answer depends on --jobs or on which thread asked first.
//
// Processor faults carry no routing meaning at this layer — the ids are
// opaque module numbers that core::PairTable and the replanner use to
// mask dead processors out of the endpoint set — but they live here so
// one FaultSet describes a whole degraded system.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "noc/mesh.hpp"

namespace nocsched::noc {

/// What is broken: directed channels, routers, and (by module id)
/// reused processors.  Immutable views are sorted and deduplicated, so
/// two FaultSets with the same faults compare equal and serialize
/// identically regardless of insertion order.
class FaultSet {
 public:
  void fail_channel(ChannelId c);
  void fail_router(RouterId r);
  void fail_processor(int module_id);

  [[nodiscard]] bool channel_failed(ChannelId c) const;
  [[nodiscard]] bool router_failed(RouterId r) const;
  [[nodiscard]] bool processor_failed(int module_id) const;

  /// A channel is usable only when neither it nor either endpoint
  /// router has failed.
  [[nodiscard]] bool channel_usable(const Mesh& mesh, ChannelId c) const;

  [[nodiscard]] bool empty() const {
    return channels_.empty() && routers_.empty() && processors_.empty();
  }

  [[nodiscard]] const std::vector<ChannelId>& failed_channels() const { return channels_; }
  [[nodiscard]] const std::vector<RouterId>& failed_routers() const { return routers_; }
  [[nodiscard]] const std::vector<int>& failed_processors() const { return processors_; }

  /// Human-readable summary, e.g. "links {3, 7}, routers {}, procs {12}".
  [[nodiscard]] std::string describe() const;

  friend bool operator==(const FaultSet&, const FaultSet&) = default;

 private:
  std::vector<ChannelId> channels_;  // sorted, unique
  std::vector<RouterId> routers_;
  std::vector<int> processors_;
};

/// Fault-aware routing over one (Mesh, FaultSet): both must outlive the
/// router.  Construction reads the fault set into a per-channel usable
/// bitmap (nothing at all when no channel or router has failed); the
/// surviving adjacency is built the first time an XY route breaks, and
/// each destination's BFS distance field the first time a detour to it
/// is walked.  Not thread-safe: route() fills the memo.
class FaultRouter {
 public:
  FaultRouter(const Mesh& mesh, const FaultSet& faults);

  [[nodiscard]] const Mesh& mesh() const { return mesh_; }
  [[nodiscard]] const FaultSet& faults() const { return faults_; }

  /// True when the fault set names no channel or router, or the mesh
  /// has no channel: every channel of the mesh is then usable.
  [[nodiscard]] bool intact() const { return usable_.empty(); }

  /// FaultSet::channel_usable, read from the bitmap; throws on a
  /// channel id the mesh does not have.
  [[nodiscard]] bool channel_usable(ChannelId c) const;

  /// True when every channel of `path` is usable (always, when no
  /// channel or router has failed).
  [[nodiscard]] bool usable(std::span<const ChannelId> path) const;

  /// Route from `from` to `to`: the XY route when it survives the
  /// faults, otherwise the lexicographically-smallest (by channel id)
  /// shortest path over the surviving channel graph.  Empty when
  /// `from == to` (local ports are never shared mesh resources).
  /// Returns nullopt when either endpoint router has failed or no
  /// surviving path exists.  The result never traverses a failed
  /// channel or a channel touching a failed router.
  [[nodiscard]] std::optional<std::vector<ChannelId>> route(RouterId from, RouterId to);

  /// The same route written into `out` (cleared first; left empty when
  /// there is none), whose capacity a caller routing many legs keeps
  /// between calls.  Returns false exactly when route() returns nullopt.
  bool route(RouterId from, RouterId to, std::vector<ChannelId>& out);

 private:
  /// BFS hop counts from every router to `to` over the surviving graph
  /// (-1: unreached), computed on first use and kept.
  const int* distances_to(RouterId to);

  const Mesh& mesh_;
  const FaultSet& faults_;
  std::vector<std::uint8_t> usable_;  // by channel id; empty: every channel usable
  // Surviving adjacency in CSR form, each router's channels in
  // ascending id: into_[into_begin_[r] .. into_begin_[r + 1]).
  std::vector<int> into_begin_;
  std::vector<ChannelId> into_;
  std::vector<int> out_begin_;
  std::vector<ChannelId> out_;
  std::vector<int> field_of_;  // by destination router: offset into fields_, or -1
  std::vector<int> fields_;    // the kept distance fields, router_count() each
  std::vector<RouterId> queue_;
};

/// One random fault scenario for sweeps and property tests: exactly one
/// uniformly random directed channel fails, and — when the system has
/// processors — a fair coin decides whether one uniformly random
/// processor dies with it.  Deterministic in the Rng state; meshes with
/// no channels (1x1) yield processor-only or empty scenarios.
[[nodiscard]] FaultSet random_fault_scenario(const Mesh& mesh,
                                             std::span<const int> processor_ids, Rng& rng);

}  // namespace nocsched::noc
