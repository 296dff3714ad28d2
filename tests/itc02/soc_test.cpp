#include "itc02/soc.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace nocsched::itc02 {
namespace {

Module simple_module(int id) {
  Module m;
  m.id = id;
  m.name = "core";
  m.inputs = 4;
  m.outputs = 3;
  m.bidirs = 2;
  m.scan_chains = {10, 20, 30};
  m.tests = {{50, true}};
  m.test_power = 100.0;
  return m;
}

TEST(Module, ScanFlopsSumsChains) {
  EXPECT_EQ(simple_module(1).scan_flops(), 60u);
  Module no_scan = simple_module(1);
  no_scan.scan_chains.clear();
  no_scan.tests = {{5, false}};
  EXPECT_EQ(no_scan.scan_flops(), 0u);
}

TEST(Module, TotalPatternsSumsTests) {
  Module m = simple_module(1);
  m.tests = {{50, true}, {25, false}};
  EXPECT_EQ(m.total_patterns(), 75u);
}

TEST(Module, StimulusAndResponseBits) {
  const Module m = simple_module(1);
  EXPECT_EQ(m.stimulus_bits_per_pattern(), 60u + 4 + 2);
  EXPECT_EQ(m.response_bits_per_pattern(), 60u + 3 + 2);
}

TEST(Module, UsesScan) {
  Module m = simple_module(1);
  EXPECT_TRUE(m.uses_scan());
  m.tests = {{5, false}};
  EXPECT_FALSE(m.uses_scan());
  m.tests = {{5, false}, {6, true}};
  EXPECT_TRUE(m.uses_scan());
}

TEST(Soc, ModuleLookup) {
  Soc soc;
  soc.name = "s";
  soc.modules = {simple_module(1), simple_module(2)};
  EXPECT_EQ(soc.module(2).id, 2);
  EXPECT_THROW((void)soc.module(3), Error);
  EXPECT_THROW((void)soc.module(0), Error);
  EXPECT_EQ(soc.find(2), &soc.modules[1]);
  EXPECT_EQ(soc.find(3), nullptr);
  EXPECT_EQ(soc.find(-1), nullptr);
  // Ids out of slot order fall back to the scan.
  soc.modules = {simple_module(2), simple_module(1)};
  EXPECT_EQ(soc.find(1), &soc.modules[1]);
  EXPECT_EQ(soc.find(2), &soc.modules[0]);
}

TEST(Soc, TotalTestPower) {
  Soc soc;
  soc.name = "s";
  soc.modules = {simple_module(1), simple_module(2)};
  soc.modules[1].test_power = 50.0;
  EXPECT_DOUBLE_EQ(soc.total_test_power(), 150.0);
}

TEST(Soc, ProcessorIds) {
  Soc soc;
  soc.name = "s";
  soc.modules = {simple_module(1), simple_module(2), simple_module(3)};
  soc.modules[0].is_processor = true;
  soc.modules[2].is_processor = true;
  EXPECT_EQ(soc.processor_ids(), (std::vector<int>{1, 3}));
}

TEST(Validate, AcceptsWellFormedSoc) {
  Soc soc;
  soc.name = "ok";
  soc.modules = {simple_module(1), simple_module(2)};
  EXPECT_NO_THROW(validate(soc));
}

TEST(Validate, RejectsEmptyName) {
  Soc soc;
  soc.modules = {simple_module(1)};
  EXPECT_THROW(validate(soc), Error);
}

TEST(Validate, RejectsNoModules) {
  Soc soc;
  soc.name = "x";
  EXPECT_THROW(validate(soc), Error);
}

TEST(Validate, RejectsNonContiguousIds) {
  Soc soc;
  soc.name = "x";
  soc.modules = {simple_module(1), simple_module(3)};
  EXPECT_THROW(validate(soc), Error);
  soc.modules = {simple_module(2)};
  EXPECT_THROW(validate(soc), Error);
}

TEST(Validate, RejectsModuleWithoutTests) {
  Soc soc;
  soc.name = "x";
  soc.modules = {simple_module(1)};
  soc.modules[0].tests.clear();
  EXPECT_THROW(validate(soc), Error);
}

TEST(Validate, RejectsZeroPatternTest) {
  Soc soc;
  soc.name = "x";
  soc.modules = {simple_module(1)};
  soc.modules[0].tests = {{0, true}};
  EXPECT_THROW(validate(soc), Error);
}

TEST(Validate, RejectsScanTestWithoutChains) {
  Soc soc;
  soc.name = "x";
  soc.modules = {simple_module(1)};
  soc.modules[0].scan_chains.clear();
  EXPECT_THROW(validate(soc), Error);  // test still says uses_scan
}

TEST(Validate, RejectsZeroLengthChain) {
  Soc soc;
  soc.name = "x";
  soc.modules = {simple_module(1)};
  soc.modules[0].scan_chains.push_back(0);
  EXPECT_THROW(validate(soc), Error);
}

TEST(Validate, RejectsNegativeOrNanPower) {
  Soc soc;
  soc.name = "x";
  soc.modules = {simple_module(1)};
  soc.modules[0].test_power = -1.0;
  EXPECT_THROW(validate(soc), Error);
  soc.modules[0].test_power = std::nan("");
  EXPECT_THROW(validate(soc), Error);
}

TEST(Validate, RejectsUntestableModule) {
  Soc soc;
  soc.name = "x";
  Module m;
  m.id = 1;
  m.name = "empty";
  m.tests = {{1, false}};
  soc.modules = {m};
  EXPECT_THROW(validate(soc), Error);  // no terminals, no scan
}

}  // namespace
}  // namespace nocsched::itc02
