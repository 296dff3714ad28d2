#include "noc/characterization.hpp"

#include <cmath>

#include "common/error.hpp"

namespace nocsched::noc {

std::uint64_t Characterization::flits_for_bits(std::uint64_t bits) const {
  return (bits + flit_width_bits - 1) / flit_width_bits;
}

std::uint64_t Characterization::path_setup_cycles(int hops) const {
  return static_cast<std::uint64_t>(hops) * (routing_latency + flow_control_latency);
}

double Characterization::transport_power(int hops_in, int hops_out) const {
  return hop_power * static_cast<double>(hops_in + hops_out);
}

void validate(const Characterization& c) {
  ensure(c.flit_width_bits > 0, "Characterization: flit width must be positive");
  ensure(c.flow_control_latency > 0, "Characterization: flow control latency must be positive");
  ensure(std::isfinite(c.hop_power) && c.hop_power >= 0.0,
         "Characterization: hop power must be finite and non-negative");
}

}  // namespace nocsched::noc
