#pragma once
// The plan-server's value model: what one planning request asks for.
//
// A PlanRequest is a pure value — everything the Engine needs to
// produce a result is in it, so a result is a pure function of the
// request (bit-identical regardless of batch order, cache state, or
// worker count; asserted by tests/engine/).  The SystemSpec part names
// the shared artifacts (parsed SoC, characterized wrappers, priced
// PairTable) and is the ContextCache key; the rest (power budget,
// search effort, faults) is per-request and derived cheaply from the
// cached artifacts.
//
// Both JSONL wire formats are read here, by one strict scanner: the
// request lines of `nocsched_cli --serve` (parse_request) and the fault
// timelines of `--fault-stream-file` (parse_fault_stream).  Every
// diagnostic is prefixed "<source>:<line>: ".  The fault lists of both
// formats, and the CLI's --fail-* flags, resolve against a built system
// through one routine, FaultSpec::resolve; --mesh and "mesh" share
// SystemSpec::set_mesh, and --power and "power" PlanRequest::set_power.

#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/params.hpp"
#include "core/system_model.hpp"
#include "itc02/soc.hpp"
#include "noc/fault.hpp"
#include "power/budget.hpp"
#include "search/driver.hpp"
#include "search/fault_stream.hpp"
#include "search/strategy.hpp"

namespace nocsched::engine {

/// Input caps shared by the CLI flags and the request keys.  Values are
/// range-checked as 64-bit integers before any narrowing.  The mesh cap
/// bounds memory: noc::Mesh keeps a routers x routers channel index.
inline constexpr std::uint64_t kMaxProcs = 64;
inline constexpr std::uint64_t kMaxWrapperChains = 1024;
inline constexpr std::uint64_t kMaxMeshRouters = 1024;

/// Names one buildable system: the cacheable, request-independent part
/// of a PlanRequest.  Two requests whose specs SpecLess finds equivalent
/// share one PlanContext (SystemModel + pristine PairTable + search
/// scaffolding).
struct SystemSpec {
  /// Built-in SoC name (d695 | p22810 | p93791) or "rand:<seed>" for a
  /// seeded random SoC (itc02::random_soc); ignored when soc_file is set.
  std::string soc = "d695";
  std::string soc_file;  ///< ITC'02-style .soc file; overrides `soc`
  itc02::ProcessorKind cpu = itc02::ProcessorKind::kLeon;
  int procs = 2;  ///< reused processors appended to the SoC
  int mesh_cols = 0;  ///< 0 = smallest square mesh (soc_file/rand systems)
  int mesh_rows = 0;
  core::PlannerParams params = core::PlannerParams::paper();

  /// Set mesh_cols/mesh_rows from "CxR" (both positive, at most
  /// kMaxMeshRouters routers); diagnostics start with `what`.
  void set_mesh(std::string_view cxr, std::string_view what);

  /// Every field that changes the built system, rendered as one line
  /// for diagnostics and ContextCache::keys_by_recency() — including
  /// every PlannerParams scalar, since policy, wrapper width, and
  /// characterized rates are baked into the cached artifacts.  The
  /// cache itself compares the fields (SpecLess), never this string.
  [[nodiscard]] std::string cache_key() const;
};

/// The ContextCache's key order: a strict total order over exactly the
/// fields cache_key() renders (`soc` only when no `soc_file` overrides
/// it), doubles compared by bit pattern so equivalence holds even for
/// NaN and tells -0 from 0.  Two specs are equivalent exactly when
/// their cache_key()s are equal, except for doubles that agree in 15
/// significant digits or NaNs with other payloads, which the rendering
/// merges and this order keeps apart; no request line sets a double.
struct SpecLess {
  [[nodiscard]] bool operator()(const SystemSpec& a, const SystemSpec& b) const;
};

/// Raw fault references, resolved against the built system at execution
/// time (router adjacency and module kinds are unknown until then).
struct FaultSpec {
  std::vector<std::string> links;        ///< "FROM:TO" adjacent router pairs
  std::vector<std::uint64_t> routers;    ///< whole routers
  std::vector<std::uint64_t> procs;      ///< processor module ids
  [[nodiscard]] bool empty() const {
    return links.empty() && routers.empty() && procs.empty();
  }

  /// The FaultSet these references name on `sys`.  Links must join
  /// adjacent routers and procs must name processor modules.  A
  /// diagnostic reads "<where><field>: <problem>", so each source adds
  /// only its prefix: "--fail-" for the CLI flags, "faults." for a
  /// served request, "<file>:<line>: " for a fault-stream line.
  [[nodiscard]] noc::FaultSet resolve(const core::SystemModel& sys,
                                      std::string_view where) const;
};

struct PlanRequest {
  std::string id;      ///< echoed in the result; parse defaults to "line-<n>"
  std::string origin;  ///< "<source>:<line>" prefixed to execution errors; may be empty
  SystemSpec system;
  std::optional<double> power_pct;  ///< peak power limit in percent of total
  std::optional<search::StrategyKind> strategy;
  std::optional<std::uint64_t> iters;
  std::uint64_t seed = 0x5EED;
  /// Threads for the search inside this one request (0 = hardware
  /// threads).  Defaults to 1: a batched server gets its parallelism
  /// from running whole requests on the work queue, and search results
  /// are bit-identical at any job count, so this only moves wall time.
  /// The CLI's one-shot adapter sets it from --jobs; not on the wire.
  unsigned search_jobs = 1;
  FaultSpec faults;     ///< non-empty: plan the degraded system (replan semantics)
  bool simulate = false;  ///< replay the plan on the DES and cross-check

  /// Search runs when either knob is given (the CLI's --search/--iters
  /// convention); otherwise the deterministic greedy pass is the plan.
  [[nodiscard]] bool searching() const {
    return strategy.has_value() || iters.has_value();
  }

  /// The search effort: the strategy (default restart) with `iters`
  /// evaluations (default 256) when searching(), else plain greedy.
  [[nodiscard]] search::SearchOptions search_options() const;

  /// Set power_pct, which must be in (0, 100]; the diagnostic starts
  /// with `what`.
  void set_power(double pct, std::string_view what);

  /// The peak-power budget `power_pct` names on `sys` (unconstrained
  /// when unset).
  [[nodiscard]] power::PowerBudget budget(const core::SystemModel& sys) const;
};

/// Parse one JSONL request line.  Accepted keys:
///   "id" (string), "soc" (string), "soc_file" (string),
///   "cpu" ("leon"|"plasma"), "procs" (uint), "wrapper" (uint),
///   "policy" ("longest"|"distance"|"shortest"),
///   "choice" ("greedy"|"earliest"), "mesh" ("CxR"),
///   "power" (number in (0, 100]), "search" ("restart"|"anneal"|"local"),
///   "iters" (uint), "seed" (uint), "simulate" (true|false),
///   "faults" ({"links": [..], "routers": [..], "procs": [..]})
/// Throws nocsched::Error with a "<source>:<line>: " prefix on any
/// violation — unknown or duplicate keys, an unknown SoC, an
/// out-of-range power, malformed JSON.
[[nodiscard]] PlanRequest parse_request(std::string_view text, std::string_view source,
                                        std::size_t line);

/// Parse a JSONL fault stream: one event object per non-empty line,
///
///   {"cycle": 1200, "links": ["0:1"], "routers": [2], "procs": [7]}
///
/// where "cycle" is the absolute injection cycle (<= search::kMaxEventCycle,
/// strictly increasing line to line) and the three lists are resolved
/// against `sys` as FaultSpec::resolve does.  At least one list must be
/// non-empty per event.  Malformed input fails with a "<name>:<line>: "
/// diagnostic naming the offending field and value.
[[nodiscard]] search::FaultStream parse_fault_stream(std::istream& in,
                                                     const core::SystemModel& sys,
                                                     std::string_view name);

/// parse_fault_stream over the file at `path` (diagnostics use the
/// path as the stream name); fails if the file cannot be opened.
[[nodiscard]] search::FaultStream load_fault_stream(const std::string& path,
                                                    const core::SystemModel& sys);

}  // namespace nocsched::engine
