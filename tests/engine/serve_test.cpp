// The JSONL serve loop over string streams: results in input order, one
// line per request, malformed lines answered in-band with exact
// line-numbered diagnostics, and output bytes independent of batch
// size (the loop is Engine::run_batch under the hood, so the engine's
// determinism contract carries over to the wire).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/serve.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace nocsched;

std::vector<std::string> serve_lines(const std::string& input,
                                     engine::ServeOptions options = {}) {
  std::istringstream in(input);
  std::ostringstream out;
  const int rc = engine::serve(in, out, options);
  EXPECT_EQ(rc, 0);
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  return lines;
}

TEST(Serve, HappyPathAnswersEveryRequestInOrder) {
  const std::vector<std::string> lines = serve_lines(
      "{\"id\": \"a\", \"soc\": \"d695\"}\n"
      "{\"id\": \"b\", \"soc\": \"d695\", \"procs\": 4}\n"
      "{\"id\": \"c\", \"soc\": \"rand:7\", \"procs\": 0}\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].find("{\"id\": \"a\", \"ok\": true, \"soc\": \"d695_leon\""), 0u)
      << lines[0];
  EXPECT_EQ(lines[1].find("{\"id\": \"b\", \"ok\": true, \"soc\": \"d695_leon\""), 0u)
      << lines[1];
  EXPECT_EQ(lines[2].find("{\"id\": \"c\", \"ok\": true, \"soc\": \"rand_"), 0u) << lines[2];
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"makespan\": "), std::string::npos) << line;
    EXPECT_NE(line.find("\"sessions\": "), std::string::npos) << line;
  }
}

TEST(Serve, EmptyObjectPlansTheDefaultSystem) {
  const std::vector<std::string> lines = serve_lines("{}\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].find("{\"id\": \"line-1\", \"ok\": true, \"soc\": \"d695_leon\""), 0u)
      << lines[0];
}

TEST(Serve, MalformedLineBecomesAnErrorObjectNotADeadProcess) {
  const std::vector<std::string> lines = serve_lines(
      "{\"id\": \"a\"}\n"
      "{\"soc\": \"nope\"}\n"
      "{\"id\": \"c\"}\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"ok\": true"), std::string::npos);
  EXPECT_EQ(lines[1],
            "{\"id\": \"line-2\", \"ok\": false, \"error\": \"stdin:2: unknown \\\"soc\\\" "
            "'nope' (expected d695|p22810|p93791 or rand:<seed>)\"}");
  EXPECT_NE(lines[2].find("\"id\": \"c\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"ok\": true"), std::string::npos);
}

TEST(Serve, ExecutionFailuresCarryTheLineNumberedOrigin) {
  const std::vector<std::string> lines = serve_lines(
      "\n"
      "{\"id\": \"gone\", \"soc_file\": \"/nonexistent/fleet.soc\"}\n");
  ASSERT_EQ(lines.size(), 1u);  // the blank line produced no output
  EXPECT_EQ(lines[0].find("{\"id\": \"gone\", \"ok\": false, \"error\": \"stdin:2: "), 0u)
      << lines[0];
  EXPECT_NE(lines[0].find("/nonexistent/fleet.soc"), std::string::npos);
}

TEST(Serve, DiagnosticsUseTheConfiguredSourceName) {
  engine::ServeOptions options;
  options.source = "requests.jsonl";
  const std::vector<std::string> lines = serve_lines("nope\n", options);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0],
            "{\"id\": \"line-1\", \"ok\": false, \"error\": \"requests.jsonl:1: expected "
            "'{' to open the request object\"}");
}

TEST(Serve, BlankLinesAndSurroundingWhitespaceAreIgnored) {
  const std::vector<std::string> lines = serve_lines(
      "\n"
      "   \n"
      "  {\"id\": \"padded\"}  \n"
      "\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].find("{\"id\": \"padded\", \"ok\": true"), 0u) << lines[0];
}

TEST(Serve, OutputBytesAreIndependentOfBatchSizeAndJobs) {
  // A stream wider than the smallest batch, mixing specs, power limits,
  // search, faults, and a parse error, so batch boundaries land in the
  // middle of real work.
  std::string input;
  for (int k = 0; k < 9; ++k) {
    switch (k % 4) {
      case 0: input += "{\"id\": \"g" + std::to_string(k) + "\"}\n"; break;
      case 1:
        input += "{\"id\": \"p" + std::to_string(k) + "\", \"procs\": 4, \"power\": 60}\n";
        break;
      case 2:
        input += "{\"id\": \"s" + std::to_string(k) +
                 "\", \"search\": \"restart\", \"iters\": 4}\n";
        break;
      default: input += "{\"oops\": " + std::to_string(k) + "}\n"; break;
    }
  }

  engine::ServeOptions reference_options;
  reference_options.batch = 1;
  reference_options.jobs = 1;
  const std::vector<std::string> reference = serve_lines(input, reference_options);
  ASSERT_EQ(reference.size(), 9u);

  for (const std::size_t batch : {2u, 4u, 64u}) {
    engine::ServeOptions options;
    options.batch = batch;
    options.jobs = 8;
    EXPECT_EQ(serve_lines(input, options), reference) << "batch " << batch;
  }

  // A tiny cache mid-stream changes eviction traffic, never bytes.
  engine::ServeOptions tiny;
  tiny.cache_capacity = 1;
  tiny.jobs = 2;
  EXPECT_EQ(serve_lines(input, tiny), reference);
}

TEST(Serve, CacheCountersCountGhostPromotions) {
  // Capacity 1 over a b a a b: a and b each leave A1in as a ghost and
  // come back through a promotion into Am; the second a hits there.
  obs::MetricsRegistry& reg = obs::registry();
  reg.set_enabled(true);
  reg.reset();
  engine::ServeOptions options;
  options.cache_capacity = 1;
  options.jobs = 1;
  const std::vector<std::string> lines = serve_lines(
      "{\"soc\": \"rand:1\"}\n{\"soc\": \"rand:2\"}\n{\"soc\": \"rand:1\"}\n"
      "{\"soc\": \"rand:1\"}\n{\"soc\": \"rand:2\"}\n",
      options);
  const obs::MetricsSnapshot snap = reg.snapshot();
  reg.reset();
  reg.set_enabled(false);
  EXPECT_EQ(lines.size(), 5u);
  EXPECT_EQ(snap.counter_or("serve.cache.hits"), 1u);
  EXPECT_EQ(snap.counter_or("serve.cache.misses"), 4u);
  EXPECT_EQ(snap.counter_or("serve.cache.evictions"), 3u);
  EXPECT_EQ(snap.counter_or("serve.cache.promotions"), 2u);
}

TEST(Serve, SocFileDiagnosticsNameTheLineNeverItsBytes) {
  // A request may point soc_file at any readable file; a rejection
  // names the line and the field but echoes none of the file's bytes.
  const std::string sentinel = "S3NT1NEL";
  const std::string module = "Module 1 'S3NT1NEL' Inputs 1 Outputs 1 Bidirs 0 TestPower 1";
  // Draws far more than half the SoC's total power, which the
  // processors' own tests stay under.
  const std::string hungry =
      "Module 1 'S3NT1NEL' Inputs 1 Outputs 1 Bidirs 0 TestPower 100000";
  struct Case {
    std::string text;
    std::string line;    ///< expected "line N" fragment ("" for whole-SoC checks)
    std::string needle;  ///< expected field or phrase
    std::string keys;    ///< request keys after soc_file ("" for none)
  };
  const std::vector<Case> cases = {
      {"user:x:1000:1000:S3NT1NEL:/home/user:/bin/sh\nbin:x:2:2:S3NT1NEL:/bin\n", "line 1",
       "SocName", ""},
      {"SocName S3NT1NEL\nTotalModules S3NT1NEL\n", "line 2", "TotalModules", ""},
      {"SocName S3NT1NEL\nModule 1 'S3NT1NEL' Inputs 1 Outputs 1 Bidirs 0 TestPower S3NT1NEL\n",
       "line 2", "TestPower", ""},
      {"SocName S3NT1NEL\n" + module + "\nScanChains 1 : S3NT1NEL\n", "line 3",
       "scan chain length", ""},
      {"SocName S3NT1NEL\n" + module + "\nScanChains 0 # S3NT1NEL\nTest 1 Patterns S3NT1NEL\n",
       "line 4", "Patterns", ""},
      // Structural checks run on the parsed SoC: they name modules by
      // id, never by the file's SocName or module names.
      {"SocName S3NT1NEL\nModule 2 'S3NT1NEL' Inputs 1 Outputs 1 Bidirs 0 TestPower 1\n"
       "ScanChains 0\nTest 1 Patterns 1 ScanUse 0\n",
       "", "module ids must be 1..N ascending; got 2 where 1 was expected", ""},
      {"SocName S3NT1NEL\n" + module + "\nScanChains 1 : 0\nTest 1 Patterns 1 ScanUse 1\n", "",
       "module 1 has a zero-length scan chain", ""},
      // A valid file: the planner's power precheck and the fault
      // parser name the sentinel module by id too.
      {"SocName S3NT1NEL\n" + hungry + "\nScanChains 0\nTest 1 Patterns 1 ScanUse 0\n", "",
       "infeasible: module 1 needs at least", ", \"power\": 50"},
      {"SocName S3NT1NEL\n" + module + "\nScanChains 0\nTest 1 Patterns 1 ScanUse 0\n", "",
       "faults.procs: module 1 is not a processor", ", \"faults\": {\"procs\": [1]}"},
  };
  const std::string path = ::testing::TempDir() + "nocsched_sentinel.soc";
  for (const Case& c : cases) {
    std::ofstream(path) << c.text;
    const std::vector<std::string> lines =
        serve_lines("{\"id\": \"leak\", \"soc_file\": \"" + path + "\"" + c.keys + "}\n");
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0].find("{\"id\": \"leak\", \"ok\": false"), 0u) << lines[0];
    EXPECT_NE(lines[0].find(c.line), std::string::npos) << lines[0];
    EXPECT_NE(lines[0].find(c.needle), std::string::npos) << lines[0];
    EXPECT_EQ(lines[0].find(sentinel), std::string::npos) << lines[0];
  }
  std::remove(path.c_str());
}

}  // namespace
