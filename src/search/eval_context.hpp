#pragma once
// Shared evaluation context for order search.
//
// Everything a search strategy needs that is invariant across the whole
// search lives here, built once per search::Driver run: the PairTable
// (pair legality and session cost never change), the CPU-eligibility
// bitmap, the deterministic base priority order, and the shuffle-tier
// partition that every legal order must respect (processor bootstrap
// first, then ATE-only cores, then flexible cores — shuffling or
// swapping across tiers would break the planner's bootstrap invariant).
// The context is immutable after construction and safe to share by
// const reference across concurrent chains; per-chain randomness comes
// from chain_rng's (seed, chain index) scheme, never from shared state.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/pair_table.hpp"
#include "core/schedule.hpp"
#include "core/system_model.hpp"
#include "noc/fault.hpp"
#include "power/budget.hpp"

namespace nocsched::search {

class EvalContext {
 public:
  /// Context over the pristine PairTable of `sys`, built here.
  EvalContext(const core::SystemModel& sys, const power::PowerBudget& budget);

  /// As the two-argument form, with the pristine PairTable moved in
  /// instead of rebuilt: `table` must equal PairTable(sys).  The
  /// engine's ContextCache hands per-request copies of one shared
  /// pristine table to budget-specific contexts this way, skipping the
  /// table build (the expensive part of context construction) on every
  /// cache hit.  The resulting context is indistinguishable from the
  /// two-argument form — asserted by tests/engine/.
  EvalContext(const core::SystemModel& sys, const power::PowerBudget& budget,
              core::PairTable&& table);

  /// Degraded-system context for fault-aware replanning: `table` must
  /// be the PairTable of `sys` under `faults` (from-scratch or via
  /// apply_faults — the caller picks the build path, which is what the
  /// fault-sweep bench measures).  Dead processors are masked out of
  /// the eligibility bitmap, and evaluation plans the surviving subset
  /// only: modules whose `candidates` bit (by module id - 1) is set and
  /// that the degraded table can serve (search::replan reports the
  /// rest).  A whole-plan replan sets every bit; a mid-timeline one
  /// clears the modules already tested in earlier epochs.  Processors
  /// in `pretested` completed their own test in an earlier epoch, so
  /// they serve from instant 0 and never strand a client in the
  /// testability fixpoint.  `pretested` must be ascending, unique, live
  /// (not in `faults`) processor module ids.  The table is an owning
  /// sink (rvalue reference per rule D4): callers move a table in
  /// rather than copying one that is shared elsewhere.
  EvalContext(const core::SystemModel& sys, const power::PowerBudget& budget,
              core::PairTable&& table, const noc::FaultSet& faults,
              const std::vector<bool>& candidates, std::vector<int> pretested);

  /// Makespan of planning `sys` with `order` — the search hot path.
  /// Runs plan()'s order checks and the same kernel, but never builds
  /// the Schedule; the driver plans only the winner in full.
  [[nodiscard]] std::uint64_t evaluate(const std::vector<int>& order) const;

  /// Full schedule for `order` (deterministic pass and final winner).
  [[nodiscard]] core::Schedule plan(const std::vector<int>& order) const;

  /// The deterministic priority order (concatenation of the tiers).
  [[nodiscard]] const std::vector<int>& base_order() const { return base_order_; }

  /// Tier-legal projection of a preferred order onto this context's
  /// plannable modules: within each shuffle tier, modules named in
  /// `preferred` come first in their preferred relative order, the rest
  /// keep their base-order relative order; modules of `preferred` that
  /// this context does not plan (dead, completed, stranded) simply drop
  /// out.  With an empty or fully-foreign `preferred` this is exactly
  /// base_order() — the warm-start regression contract.
  [[nodiscard]] std::vector<int> projected_order(const std::vector<int>& preferred) const;

  /// A contiguous run of positions in any tier-respecting order whose
  /// modules share a shuffle tier; `[begin, end)` indexes the order.
  struct Segment {
    std::size_t begin = 0;
    std::size_t end = 0;
    [[nodiscard]] std::size_t size() const { return end - begin; }
  };

  /// Tier segments in order (empty tiers omitted).
  [[nodiscard]] const std::vector<Segment>& segments() const { return segments_; }

  /// Positions that belong to a segment of size >= 2 — the positions a
  /// within-tier swap move may touch.
  [[nodiscard]] const std::vector<std::size_t>& swappable_positions() const {
    return swappable_positions_;
  }

  /// Segment containing position `pos` (requires pos < order size).
  [[nodiscard]] const Segment& segment_of(std::size_t pos) const {
    return segments_[segment_index_[pos]];
  }

  /// Every within-tier position pair (i < j), enumerated segment by
  /// segment — the greedy descent's deterministic sweep list.
  [[nodiscard]] const std::vector<std::pair<std::size_t, std::size_t>>& swap_pairs() const {
    return swap_pairs_;
  }

  /// A fresh random order: each tier shuffled independently, tiers
  /// concatenated.  Consumes `rng` exactly as PR 3's multistart did, so
  /// the restart strategy reproduces it bit-for-bit.
  [[nodiscard]] std::vector<int> shuffled_order(Rng& rng) const;

  /// RNG for chain `chain` of a search seeded with `seed`: the stream
  /// depends only on (seed, chain), never on thread or schedule, which
  /// is what makes any chain count bit-identical at any job count.
  [[nodiscard]] static Rng chain_rng(std::uint64_t seed, std::uint64_t chain) {
    return stream_rng(seed, chain);
  }

  [[nodiscard]] const core::SystemModel& system() const { return sys_; }
  [[nodiscard]] const core::PairTable& pair_table() const { return pairs_; }
  [[nodiscard]] const std::vector<bool>& cpu_eligible() const { return eligible_; }
  [[nodiscard]] const std::vector<int>& pretested() const { return pretested_; }

 private:
  void build_tiers();

  const core::SystemModel& sys_;
  power::PowerBudget budget_;
  core::PairTable pairs_;
  bool subset_ = false;  ///< fault mode: the order is a strict subset
  std::vector<int> pretested_;  ///< processors tested in earlier epochs
  std::vector<bool> eligible_;
  std::vector<int> base_order_;
  std::vector<std::vector<int>> tiers_;
  std::vector<Segment> segments_;
  std::vector<std::size_t> segment_index_;  // position -> index into segments_
  std::vector<std::size_t> swappable_positions_;
  std::vector<std::pair<std::size_t, std::size_t>> swap_pairs_;
};

}  // namespace nocsched::search
