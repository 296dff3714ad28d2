#include "noc/characterization.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace nocsched::noc {
namespace {

TEST(Characterization, FlitsForBitsRoundsUp) {
  Characterization c;
  c.flit_width_bits = 32;
  EXPECT_EQ(c.flits_for_bits(0), 0u);
  EXPECT_EQ(c.flits_for_bits(1), 1u);
  EXPECT_EQ(c.flits_for_bits(32), 1u);
  EXPECT_EQ(c.flits_for_bits(33), 2u);
  EXPECT_EQ(c.flits_for_bits(64), 2u);
  c.flit_width_bits = 16;
  EXPECT_EQ(c.flits_for_bits(33), 3u);
}

TEST(Characterization, PathSetupScalesWithHops) {
  Characterization c;
  c.routing_latency = 3;
  c.flow_control_latency = 2;
  EXPECT_EQ(c.path_setup_cycles(0), 0u);
  EXPECT_EQ(c.path_setup_cycles(1), 5u);
  EXPECT_EQ(c.path_setup_cycles(4), 20u);
}

TEST(Characterization, TransportPowerCountsBothPaths) {
  Characterization c;
  c.hop_power = 10.0;
  EXPECT_DOUBLE_EQ(c.transport_power(3, 2), 50.0);
  EXPECT_DOUBLE_EQ(c.transport_power(0, 0), 0.0);
}

TEST(Characterization, ValidateAcceptsDefaults) {
  EXPECT_NO_THROW(validate(Characterization{}));
}

TEST(Characterization, ValidateRejectsNonsense) {
  Characterization c;
  c.flit_width_bits = 0;
  EXPECT_THROW(validate(c), Error);
  c = {};
  c.flow_control_latency = 0;
  EXPECT_THROW(validate(c), Error);
  c = {};
  c.hop_power = -5.0;
  EXPECT_THROW(validate(c), Error);
}

}  // namespace
}  // namespace nocsched::noc
