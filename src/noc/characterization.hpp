#pragma once
// NoC characterization — the paper's step 1.
//
// "The performance metrics of a NoC router can be divided in two parts:
// the routing latency and the flow control latency.  The routing latency
// is the intra-router time required to create a connection through the
// router, while the flow control latency is defined as the inter-router
// time required to send flits in the channels."
//
// This struct carries those two latencies, the flit width, and the mean
// per-hop transport power (the paper measures the mean power to send
// packets of random size and payload and "adds this value to each router
// the packet passes through").

#include <cstdint>

namespace nocsched::noc {

struct Characterization {
  std::uint32_t flit_width_bits = 32;      ///< channel/flit width
  std::uint32_t routing_latency = 3;       ///< cycles to set up a hop (intra-router)
  std::uint32_t flow_control_latency = 1;  ///< cycles per flit per channel (inter-router)
  double hop_power = 40.0;                 ///< mean transport power added per hop in use

  /// Flits needed to carry `bits` payload bits.
  [[nodiscard]] std::uint64_t flits_for_bits(std::uint64_t bits) const;

  /// Cycles for the head flit to set up a path of `hops` channels
  /// (routing plus one flow-control transfer per hop).
  [[nodiscard]] std::uint64_t path_setup_cycles(int hops) const;

  /// Transport power drawn by a session whose stimulus path has
  /// `hops_in` channels and response path `hops_out`.
  [[nodiscard]] double transport_power(int hops_in, int hops_out) const;
};

/// Validate parameter sanity (non-zero width and flow control, finite
/// non-negative power); throws nocsched::Error otherwise.
void validate(const Characterization& c);

}  // namespace nocsched::noc
