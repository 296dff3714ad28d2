#include "search/fault_stream.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "core/system_model.hpp"
#include "engine/request.hpp"

namespace nocsched::search {
namespace {

core::SystemModel d695() {
  return core::SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 4,
                                         core::PlannerParams::paper());
}

FaultStream parse(const std::string& text, const core::SystemModel& sys) {
  std::istringstream in(text);
  return engine::parse_fault_stream(in, sys, "test");
}

/// Expect the parse to fail with `fragment` somewhere in the message —
/// the line-numbered diagnostics are part of the CLI contract.
void expect_rejected(const std::string& text, const std::string& fragment) {
  const core::SystemModel sys = d695();
  try {
    (void)parse(text, sys);
    FAIL() << "accepted malformed stream, wanted: " << fragment;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "message '" << e.what() << "' lacks '" << fragment << "'";
  }
}

TEST(FaultStreamParser, AcceptsEventsAndSkipsBlankLines) {
  const core::SystemModel sys = d695();
  const FaultStream stream = parse(
      "{\"cycle\": 100, \"links\": [\"0:1\"]}\n"
      "\n"
      "  {\"cycle\": 2500, \"routers\": [2], \"procs\": [11]}\n",
      sys);
  ASSERT_EQ(stream.events.size(), 2u);
  EXPECT_EQ(stream.events[0].cycle, 100u);
  EXPECT_EQ(stream.events[0].increment.failed_channels().size(), 1u);
  EXPECT_TRUE(stream.events[0].increment.failed_routers().empty());
  EXPECT_EQ(stream.events[1].cycle, 2500u);
  EXPECT_TRUE(stream.events[1].increment.router_failed(2));
  EXPECT_TRUE(stream.events[1].increment.processor_failed(11));
}

TEST(FaultStreamParser, CumulativeMergesPrefixes) {
  const core::SystemModel sys = d695();
  const FaultStream stream = parse(
      "{\"cycle\": 1, \"links\": [\"0:1\"]}\n"
      "{\"cycle\": 2, \"procs\": [11]}\n",
      sys);
  EXPECT_TRUE(stream.cumulative(0).empty());
  EXPECT_TRUE(stream.cumulative(1).processor_failed(11) == false);
  const noc::FaultSet all = stream.cumulative(2);
  EXPECT_EQ(all.failed_channels().size(), 1u);
  EXPECT_TRUE(all.processor_failed(11));
  EXPECT_THROW((void)stream.cumulative(3), Error);
}

TEST(FaultStreamParser, RejectionsNameTheLineAndField) {
  // Every rejection carries a "test:<line>:" prefix and names the
  // offending value — satellite 2's hardening contract.
  expect_rejected("{\"cycle\": 10, \"links\": [\"0:9\"]}",
                  "test:1: links: '0:9' joins routers 0 and 9, which are not adjacent");
  expect_rejected("{\"cycle\": 10, \"links\": [\"0:99\"]}",
                  "test:1: links: no router 99 in '0:99' (mesh has 16 routers)");
  expect_rejected("{\"cycle\": 10, \"links\": [\"zero:1\"]}",
                  "test:1: links: bad router id 'zero'");
  expect_rejected("{\"cycle\": 10, \"routers\": [99]}", "test:1: routers: no router 99");
  expect_rejected("{\"cycle\": 10, \"procs\": [1]}", "test:1: procs: module 1 (");
  expect_rejected("{\"cycle\": 10, \"procs\": [99]}", "test:1: procs: no module 99");
  expect_rejected("{\"cycle\": 10}", "test:1: event breaks nothing");
  expect_rejected("{\"links\": [\"0:1\"]}", "test:1: event has no \"cycle\"");
  expect_rejected("{\"cycle\": 1, \"cycle\": 2, \"links\": [\"0:1\"]}",
                  "test:1: duplicate \"cycle\" key");
  expect_rejected("{\"cycle\": 10, \"bogus\": 1}", "test:1: unknown key \"bogus\"");
  expect_rejected("{\"cycle\": 99999999999999999999, \"links\": [\"0:1\"]}",
                  "is out of range");
  expect_rejected(cat("{\"cycle\": ", kMaxEventCycle + 1, ", \"links\": [\"0:1\"]}"),
                  "exceeds the maximum");
  expect_rejected("{\"cycle\": 10, \"links\": [\"0:1\"]} trailing",
                  "test:1: trailing content");
  expect_rejected("not json", "test:1: expected '{'");
}

TEST(FaultStreamParser, RejectsNonMonotoneCycles) {
  expect_rejected(
      "{\"cycle\": 500, \"links\": [\"0:1\"]}\n"
      "{\"cycle\": 400, \"procs\": [11]}\n",
      "test:2: event cycle 400 is not after the previous event's cycle 500");
  expect_rejected(
      "{\"cycle\": 500, \"links\": [\"0:1\"]}\n"
      "{\"cycle\": 500, \"procs\": [11]}\n",
      "test:2: event cycle 500 is not after");
}

TEST(FaultStreamParser, RejectsEmptyStream) {
  expect_rejected("", "test: fault stream has no events");
  expect_rejected("\n  \n", "test: fault stream has no events");
}

TEST(RandomFaultStream, DeterministicAndWellFormed) {
  const core::SystemModel sys = d695();
  const FaultStream a = random_fault_stream(sys, 6, 0xFA017, 100000);
  const FaultStream b = random_fault_stream(sys, 6, 0xFA017, 100000);
  ASSERT_EQ(a.events.size(), 6u);
  ASSERT_EQ(b.events.size(), 6u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].cycle, b.events[i].cycle) << "event " << i;
    EXPECT_EQ(a.events[i].increment, b.events[i].increment) << "event " << i;
    EXPECT_FALSE(a.events[i].increment.empty()) << "event " << i;
    EXPECT_GE(a.events[i].cycle, 1u);
    EXPECT_LE(a.events[i].cycle, 100000u);
    if (i > 0) {
      EXPECT_GT(a.events[i].cycle, a.events[i - 1].cycle);
    }
  }
  // A different seed draws a different timeline.
  const FaultStream c = random_fault_stream(sys, 6, 0xBEEF, 100000);
  bool differs = false;
  for (std::size_t i = 0; i < c.events.size(); ++i) {
    if (c.events[i].cycle != a.events[i].cycle ||
        !(c.events[i].increment == a.events[i].increment)) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(RandomFaultStream, TinyHorizonStillYieldsDistinctCycles) {
  const core::SystemModel sys = d695();
  const FaultStream stream = random_fault_stream(sys, 4, 7, 1);
  ASSERT_EQ(stream.events.size(), 4u);
  for (std::size_t i = 1; i < stream.events.size(); ++i) {
    EXPECT_GT(stream.events[i].cycle, stream.events[i - 1].cycle);
  }
}

TEST(LoadFaultStream, MissingFileIsAnError) {
  const core::SystemModel sys = d695();
  EXPECT_THROW((void)engine::load_fault_stream("/nonexistent/stream.jsonl", sys), Error);
}

}  // namespace
}  // namespace nocsched::search
