// JSONL request grammar: accepted forms land in the right PlanRequest
// fields; every rejected form dies with an exact, line-numbered
// diagnostic (the serve loop forwards these verbatim as in-band error
// objects, so the wording is API surface).

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "engine/request.hpp"

namespace {

using namespace nocsched;

engine::PlanRequest parse(std::string_view text) {
  return engine::parse_request(text, "req", 7);
}

std::string parse_error(std::string_view text) {
  try {
    (void)engine::parse_request(text, "req", 7);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected parse_request to reject: " << text;
  return {};
}

TEST(RequestParse, EmptyObjectGetsDefaults) {
  const engine::PlanRequest req = parse("{}");
  EXPECT_EQ(req.id, "line-7");
  EXPECT_EQ(req.origin, "req:7");
  EXPECT_EQ(req.system.soc, "d695");
  EXPECT_TRUE(req.system.soc_file.empty());
  EXPECT_EQ(req.system.cpu, itc02::ProcessorKind::kLeon);
  EXPECT_EQ(req.system.procs, 2);
  EXPECT_FALSE(req.power_pct.has_value());
  EXPECT_FALSE(req.searching());
  EXPECT_EQ(req.seed, 0x5EEDu);
  EXPECT_FALSE(req.simulate);
  EXPECT_TRUE(req.faults.empty());
}

TEST(RequestParse, EveryKeyLandsInItsField) {
  const engine::PlanRequest req = parse(
      R"({"id": "job-1", "soc": "p22810", "cpu": "plasma", "procs": 6, )"
      R"("wrapper": 8, "policy": "distance", "choice": "earliest", )"
      R"("power": 62.5, "search": "anneal", "iters": 40, "seed": 99})");
  EXPECT_EQ(req.id, "job-1");
  EXPECT_EQ(req.system.soc, "p22810");
  EXPECT_EQ(req.system.cpu, itc02::ProcessorKind::kPlasma);
  EXPECT_EQ(req.system.procs, 6);
  EXPECT_EQ(req.system.params.wrapper_chains, 8u);
  EXPECT_EQ(req.system.params.priority, core::PriorityPolicy::kDistanceFirst);
  EXPECT_EQ(req.system.params.resource_choice, core::ResourceChoice::kEarliestCompletion);
  ASSERT_TRUE(req.power_pct.has_value());
  EXPECT_DOUBLE_EQ(*req.power_pct, 62.5);
  ASSERT_TRUE(req.strategy.has_value());
  EXPECT_EQ(*req.strategy, search::StrategyKind::kAnneal);
  ASSERT_TRUE(req.iters.has_value());
  EXPECT_EQ(*req.iters, 40u);
  EXPECT_EQ(req.seed, 99u);
  EXPECT_TRUE(req.searching());
}

TEST(RequestParse, SocFileMeshAndFaults) {
  const engine::PlanRequest req = parse(
      R"({"soc_file": "my.soc", "mesh": "4x5", )"
      R"("faults": {"links": ["0:1", "3:4"], "routers": [2], "procs": [11, 12]}})");
  EXPECT_EQ(req.system.soc_file, "my.soc");
  EXPECT_EQ(req.system.mesh_cols, 4);
  EXPECT_EQ(req.system.mesh_rows, 5);
  EXPECT_EQ(req.faults.links, (std::vector<std::string>{"0:1", "3:4"}));
  EXPECT_EQ(req.faults.routers, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(req.faults.procs, (std::vector<std::uint64_t>{11, 12}));
}

TEST(RequestParse, RandSocNamesAccepted) {
  EXPECT_EQ(parse(R"({"soc": "rand:42"})").system.soc, "rand:42");
}

TEST(RequestParse, WhitespaceIsInsignificant) {
  const engine::PlanRequest a = parse(R"({"procs": 4, "power": 50})");
  const engine::PlanRequest b = parse(R"(  { "procs" :4 ,"power": 50 }  )");
  EXPECT_EQ(a.system.procs, b.system.procs);
  EXPECT_EQ(a.power_pct, b.power_pct);
}

// The exact-diagnostic corpus: one malformed line per failure mode.
TEST(RequestParse, ExactDiagnostics) {
  EXPECT_EQ(parse_error("not json"), "req:7: expected '{' to open the request object");
  EXPECT_EQ(parse_error(R"({"soc": "nope"})"),
            "req:7: unknown \"soc\" 'nope' (expected d695|p22810|p93791 or rand:<seed>)");
  EXPECT_EQ(parse_error(R"({"soc": "rand:abc"})"),
            "req:7: bad \"soc\" random seed in 'rand:abc' (expected rand:<seed>)");
  EXPECT_EQ(parse_error(R"({"power": 120.5})"),
            "req:7: \"power\" must be in (0, 100], got 120.5");
  EXPECT_EQ(parse_error(R"({"power": 0})"), "req:7: \"power\" must be in (0, 100], got 0");
  EXPECT_EQ(parse_error(R"({"bogus": 1})"),
            "req:7: unknown key \"bogus\" (expected id|soc|soc_file|cpu|procs|wrapper|"
            "policy|choice|mesh|power|search|iters|seed|simulate|faults)");
  EXPECT_EQ(parse_error(R"({"procs": 2, "procs": 3})"), "req:7: duplicate \"procs\" key");
  EXPECT_EQ(parse_error(R"({"procs": 65})"),
            "req:7: \"procs\" 65 is out of range (at most 64)");
  EXPECT_EQ(parse_error(R"({"cpu": "vax"})"),
            "req:7: unknown \"cpu\" 'vax' (expected leon|plasma)");
  EXPECT_EQ(parse_error(R"({"wrapper": 0})"),
            "req:7: \"wrapper\" must be in [1, 1024], got 0");
  EXPECT_EQ(parse_error(R"({"mesh": "4"})"), "req:7: \"mesh\" expects CxR, e.g. 4x4, got '4'");
  // Mesh sizes are range-checked before narrowing to int, and capped:
  // noc::Mesh keeps a routers x routers channel index.
  EXPECT_EQ(parse_error(R"({"soc": "rand:1", "procs": 2, "mesh": "4294967300x4"})"),
            "req:7: \"mesh\" '4294967300x4' has more than 1024 routers");
  EXPECT_EQ(parse_error(R"({"mesh": "33x32"})"),
            "req:7: \"mesh\" '33x32' has more than 1024 routers");
  EXPECT_EQ(parse_error(R"({"mesh": "99999999999999999999x1"})"),
            "req:7: \"mesh\" '99999999999999999999x1' has more than 1024 routers");
  EXPECT_EQ(parse_error(R"({"mesh": "0x4"})"),
            "req:7: \"mesh\" dimensions must be positive, got '0x4'");
  EXPECT_EQ(parse_error(R"({"search": "tabu"})"),
            "req:7: unknown search strategy 'tabu' (expected restart|anneal|local)");
  EXPECT_EQ(parse_error(R"({"simulate": "yes"})"),
            "req:7: expected true or false for \"simulate\"");
  EXPECT_EQ(parse_error(R"({"id": "x"} trailing)"),
            "req:7: trailing content 'trailing' after the request object");
  EXPECT_EQ(parse_error(R"({"id": "x")"),
            "req:7: expected '}' to close the request object");
  EXPECT_EQ(parse_error(R"({"id: 1})"), "req:7: unterminated string in a key");
  EXPECT_EQ(parse_error(R"({"faults": {"nope": []}})"),
            "req:7: unknown faults key \"nope\" (expected links|routers|procs)");
  EXPECT_EQ(parse_error(R"({"simulate": true, "faults": {"procs": [11]}})"),
            "req:7: \"simulate\" cannot be combined with \"faults\" (fault requests "
            "already classify the degraded plan)");
  EXPECT_EQ(parse_error(R"({"soc_file": ""})"), "req:7: \"soc_file\" must not be empty");
}

// The diagnostic prefix tracks the caller-supplied source and line.
TEST(RequestParse, DiagnosticsNameSourceAndLine) {
  try {
    (void)engine::parse_request("nope", "requests.jsonl", 123);
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "requests.jsonl:123: expected '{' to open the request object");
  }
}

// Cache keys: request-level knobs (power, search, seed, faults) never
// reach the key; every system-shaping knob does.
TEST(RequestParse, CacheKeyCoversSystemShapingKeysOnly) {
  const engine::PlanRequest base = parse("{}");
  EXPECT_EQ(base.system.cache_key(),
            parse(R"({"power": 50, "search": "anneal", "iters": 9, "seed": 1})")
                .system.cache_key());
  EXPECT_NE(base.system.cache_key(), parse(R"({"soc": "p22810"})").system.cache_key());
  EXPECT_NE(base.system.cache_key(), parse(R"({"procs": 4})").system.cache_key());
  EXPECT_NE(base.system.cache_key(), parse(R"({"cpu": "plasma"})").system.cache_key());
  EXPECT_NE(base.system.cache_key(), parse(R"({"wrapper": 8})").system.cache_key());
  EXPECT_NE(base.system.cache_key(), parse(R"({"policy": "distance"})").system.cache_key());
  EXPECT_NE(base.system.cache_key(), parse(R"({"choice": "earliest"})").system.cache_key());
}

}  // namespace
