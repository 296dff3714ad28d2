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
// Determinism: slots live in an ordered map, and eviction is LRU over a
// monotonic reservation counter — a pure function of the reserve() call
// sequence.  The engine's batch driver reserves serially in request
// order and only materializes (builds) in parallel, so the cache's
// contents after a batch depend on nothing but the request sequence.
// Handles are shared_ptrs: an evicted context stays alive for requests
// still holding it.

#include <cstdint>
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

  /// One cache slot: reserved serially (deterministic recency and
  /// eviction), built at most once, shared by every request naming the
  /// same spec.  The first caller builds while holding `build`; callers
  /// arriving meanwhile wait on it and then read the outcome.
  struct Slot {
    enum class State : std::uint8_t { kUnbuilt, kBuilt, kFailed };
    SystemSpec spec;
    std::uint64_t seq = 0;  ///< last reservation, the LRU recency stamp
    std::mutex build;       ///< guards state, context and error
    State state = State::kUnbuilt;
    Handle context;     ///< kBuilt: the context
    std::string error;  ///< kFailed: the build's diagnostic
  };
  using SlotHandle = std::shared_ptr<Slot>;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  explicit ContextCache(std::size_t capacity);

  /// Find-or-insert the slot for `spec`, touch its recency, and evict
  /// the least-recently reserved slot while over capacity.  Cheap (no
  /// building) and mutex-serialized; callers wanting deterministic
  /// eviction must serialize their reserve() order themselves (the
  /// engine reserves a whole batch in request order before any build).
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
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// The cache_key() of every cached spec, least-recently reserved
  /// first — the eviction order the determinism tests pin down.
  [[nodiscard]] std::vector<std::string> keys_by_recency() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::uint64_t seq_ = 0;
  std::map<SystemSpec, SlotHandle, SpecLess> slots_;
  Stats stats_;
};

}  // namespace nocsched::engine
