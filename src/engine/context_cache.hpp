#pragma once
// Keyed cache of immutable shared planning artifacts.
//
// Building a system is the expensive part of serving a plan: parse (or
// generate) the SoC, characterize wrappers and routes, and price every
// (source, sink) pair into a PairTable.  All of it is a pure function
// of the SystemSpec, so requests naming the same spec share one
// PlanContext — the paper's amortization idea applied to the planner
// itself.  Per-request state (power budget, faults, search effort) is
// derived from the cached artifacts without mutating them: faulted
// tables via a copy + PairTable::apply_faults, budget-specific search
// contexts via EvalContext::with_budget, which shares the pristine
// table and copies the scaffold's budget-independent order data.
//
// Key: the SystemSpec itself, ordered field by field by SpecLess (no
// string is rendered or hashed on a lookup; SystemSpec::cache_key() is
// the same fields as text, for diagnostics and keys_by_recency()).
//
// Policy: 2Q (Johnson & Shasha, VLDB '94), so a cycle over more specs
// than the cache holds keeps hitting instead of evicting every slot
// just before its next use, as LRU does.  A first-time spec enters
// A1in, a FIFO that a hit does not reorder.  A spec evicted from A1in
// leaves a ghost in A1out, a FIFO of up to `capacity` specs without
// contexts.  Reserving a ghost's spec again builds a fresh slot in Am,
// an LRU of specs seen twice.  While more than `capacity` slots are
// resident, the A1in head becomes a ghost if A1in holds more than its
// share (capacity/4, at least 1) or Am is empty; otherwise Am's least
// recent slot is dropped.  The slot a reserve() call has just placed is
// never its own victim.  Until the cache first fills nothing is
// evicted, so a working set of at most `capacity` specs hits exactly
// as it would under any policy.
//
// Determinism: every decision above is a pure function of the
// reserve() call sequence.  The engine's batch driver reserves serially
// in request order and only materializes (builds) in parallel, so the
// cache's contents after a batch depend on nothing but the request
// sequence.  Handles are shared_ptrs: an evicted context stays alive
// for requests still holding it.

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pair_table.hpp"
#include "core/system_model.hpp"
#include "engine/request.hpp"
#include "search/eval_context.hpp"

namespace nocsched::engine {

/// One cached bundle: the built system, its unconstrained-budget search
/// scaffolding (which owns the pristine PairTable), and the spec that
/// produced them.  Immutable after construction; vend by const
/// reference or shared_ptr-to-const only (lint rule D4 covers this type
/// exactly like PairTable and EvalContext).
class PlanContext {
 public:
  explicit PlanContext(const SystemSpec& spec);

  [[nodiscard]] const SystemSpec& spec() const { return spec_; }
  [[nodiscard]] const core::SystemModel& system() const { return *sys_; }
  /// Unconstrained-budget scaffolding: base priority order, tiers,
  /// eligibility — budget-independent, so any request can read them.
  [[nodiscard]] const search::EvalContext& scaffold() const { return *scaffold_; }
  /// The pristine (fault-free) PairTable; copy it before degrading.
  [[nodiscard]] const core::PairTable& pristine_pairs() const {
    return scaffold_->pair_table();
  }

 private:
  SystemSpec spec_;
  std::unique_ptr<const core::SystemModel> sys_;  ///< address-stable: scaffold_ refers to it
  std::unique_ptr<const search::EvalContext> scaffold_;
};

/// Build the SystemModel a spec names (builtin, .soc file, or seeded
/// random SoC) — the single system-construction path shared by the
/// engine, the CLI, and the benches.
[[nodiscard]] core::SystemModel build_system(const SystemSpec& spec);

class ContextCache {
 public:
  using Handle = std::shared_ptr<const PlanContext>;

  /// One cache slot: reserved serially (deterministic placement and
  /// eviction), built at most once, shared by every request naming the
  /// same spec.  The first caller builds while holding `build`; callers
  /// arriving meanwhile wait on it and then read the outcome.
  struct Slot {
    enum class State : std::uint8_t { kUnbuilt, kBuilt, kFailed };
    /// The 2Q list holding the slot; a kA1out slot is a ghost, never
    /// vended and never built.
    enum class Segment : std::uint8_t { kA1in, kAm, kA1out };
    SystemSpec spec;
    std::mutex build;  ///< guards state, context and error
    State state = State::kUnbuilt;
    Handle context;     ///< kBuilt: the context
    std::string error;  ///< kFailed: the build's diagnostic
    // Guarded by the cache's mutex: the slot's list and its place there.
    Segment segment = Segment::kA1in;
    std::list<Slot*>::iterator pos;
  };
  using SlotHandle = std::shared_ptr<Slot>;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t promotions = 0;  ///< misses on a ghost, placed in Am
  };

  explicit ContextCache(std::size_t capacity);

  /// Find-or-insert the slot for `spec`, update its 2Q place, and evict
  /// while more than capacity() slots are resident.  Cheap (no building,
  /// no pass over the slots) and mutex-serialized; callers wanting
  /// deterministic eviction must serialize their reserve() order
  /// themselves (the engine reserves a whole batch in request order
  /// before any build).
  [[nodiscard]] SlotHandle reserve(const SystemSpec& spec);

  /// The built context for a reserved slot, building it on first use.
  /// Thread-safe: concurrent callers of the same slot build once and
  /// share the result.  A build that throws nocsched::Error fails the
  /// slot: every later caller gets an Error with the same diagnostic,
  /// and nothing is rebuilt (no file is opened again).  Any other
  /// exception leaves the slot unbuilt, so the next caller retries.
  [[nodiscard]] Handle context(const SlotHandle& slot);

  /// reserve + context in one step.
  [[nodiscard]] Handle acquire(const SystemSpec& spec);

  [[nodiscard]] Stats stats() const;
  /// Resident slots (ghosts excluded).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// The cache_key() of every resident spec: A1in oldest first, then
  /// Am least recent first — the order the determinism tests pin down.
  [[nodiscard]] std::vector<std::string> keys_by_recency() const;

 private:
  using SlotList = std::list<Slot*>;

  /// Append `slot` to `list` as `segment`.
  static void link(Slot& slot, SlotList& list, Slot::Segment segment);
  /// Evict one resident slot other than `fresh`.
  void evict_one(const Slot* fresh);

  const std::size_t capacity_;
  const std::size_t a1in_share_;  ///< A1in's bound once the cache is full
  mutable std::mutex mutex_;
  /// Resident slots and ghosts, one entry per spec.
  std::map<SystemSpec, SlotHandle, SpecLess> slots_;
  SlotList a1in_;   ///< first-time specs, oldest first
  SlotList am_;     ///< specs reserved again as ghosts, least recent first
  SlotList a1out_;  ///< ghosts, oldest first
  Stats stats_;
};

}  // namespace nocsched::engine
