#pragma once
// Planner parameters.  Every modeling constant the DATE'05 paper leaves
// implicit is pinned here, in one place, with named presets
// (DESIGN.md §2 explains each choice).

#include "cpu/characterize.hpp"
#include "itc02/builtin.hpp"
#include "noc/characterization.hpp"

namespace nocsched::core {

/// Order in which pending cores are offered resources.
enum class PriorityPolicy {
  kDistanceFirst,     ///< paper: "cores closer to IO ports or processors are tested first"
  kLongestTestFirst,  ///< classic LPT list scheduling (ablation)
  kShortestTestFirst, ///< ablation
};

/// How a pending core picks among test interfaces.
enum class ResourceChoice {
  kFirstAvailable,      ///< paper's greedy: take whatever is free *now*
  kEarliestCompletion,  ///< ablation: may wait for a faster interface
};

/// Among the pairs free at the same instant, which one wins.
enum class PairOrder {
  kNearestFirst,  ///< paper's locality emphasis: fewest hops first
  kFastestFirst,  ///< rate-aware: shortest session first
};

/// How concurrent test streams share NoC channels.
enum class ChannelModel {
  /// Packet-switched multiplexing (default): a channel carries any mix
  /// of streams whose summed bandwidth demand stays within capacity —
  /// the fluid approximation of the wormhole NoC the literature reuses
  /// as a TAM.
  kMultiplexed,
  /// Conservative circuit switching: a session exclusively reserves
  /// every channel of its two paths for its whole duration (ablation).
  /// A pair whose two legs share a directed channel (only a fault
  /// detour does that) is not offered: its circuits could never hold
  /// the channel together.
  kCircuit,
};

/// Cycle/power/memory cost of the software-BIST application on one
/// processor kind (from cpu::characterize(), or pinned by a preset).
struct CpuRates {
  double per_stimulus_flit = 0.0;
  double per_response_flit = 0.0;
  double per_pattern_overhead = 0.0;
  double setup_cycles = 0.0;
  double active_power = 0.0;
  std::uint64_t program_bytes = 0;  ///< footprint of the BIST kernel itself
  std::uint64_t memory_bytes = 0;   ///< local RAM available to the application
};

struct PlannerParams {
  /// Wrapper chains per core (effective test interface width through
  /// the core's network interface).  4 calibrates d695's no-reuse
  /// baseline to the paper's ~160k-cycle axis.
  std::uint32_t wrapper_chains = 4;

  noc::Characterization noc{};

  PriorityPolicy priority = PriorityPolicy::kLongestTestFirst;
  ResourceChoice resource_choice = ResourceChoice::kFirstAvailable;
  PairOrder pair_order = PairOrder::kNearestFirst;
  ChannelModel channel_model = ChannelModel::kMultiplexed;

  /// Schedule processor self-tests before ordinary cores so reuse
  /// becomes available early (on ties the priority policy still rules).
  bool processors_first = true;

  /// Allow sessions pairing an ATE port with a processor (or two
  /// different processors).  Off by default: the paper's "two external
  /// interfaces (input and output)" form one tester channel, and a
  /// reused processor runs one self-contained test program that both
  /// generates stimuli and checks responses (ablation A8 turns this on).
  bool allow_cross_pairing = false;

  CpuRates leon;
  CpuRates plasma;

  /// Reproduction defaults: NoC defaults plus ISS-characterized
  /// processor rates (lazy-characterized once per process).
  [[nodiscard]] static PlannerParams paper();

  /// The paper's literal statement taken at face value: a processor
  /// "takes 10 clock cycles to generate a test pattern" regardless of
  /// pattern size (flit rates zero, 10-cycle pattern overhead).  Used
  /// by the A5 ablation bench.
  [[nodiscard]] static PlannerParams paper_literal_rate();

  [[nodiscard]] const CpuRates& rates(itc02::ProcessorKind kind) const;
};

/// Convert a fitted characterization into planner rates.
[[nodiscard]] CpuRates to_rates(const cpu::CpuCharacterization& c);

/// Validate parameter sanity; throws nocsched::Error on nonsense.
void validate(const PlannerParams& p);

}  // namespace nocsched::core
