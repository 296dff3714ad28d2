// The committed regression corpus (tests/corpus/*.jsonl): every request
// a fixed bug once failed on must now be answered ok:true.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/request.hpp"

namespace {

using namespace nocsched;

const std::filesystem::path kCorpus = NOCSCHED_CORPUS_DIR;

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(kCorpus)) {
    if (entry.path().extension() == ".jsonl") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

engine::PlanResult run_first_request(const std::string& file) {
  std::ifstream in(kCorpus / file);
  std::string line;
  EXPECT_TRUE(std::getline(in, line)) << file;
  engine::Engine engine;
  return engine.run(engine::parse_request(line, file, 1));
}

TEST(Corpus, EveryRequestIsAnsweredOk) {
  const std::vector<std::filesystem::path> files = corpus_files();
  ASSERT_FALSE(files.empty()) << "no corpus under " << kCorpus;
  engine::Engine engine;
  for (const std::filesystem::path& file : files) {
    std::ifstream in(file);
    ASSERT_TRUE(in) << file;
    std::size_t n = 0;
    for (std::string line; std::getline(in, line);) {
      ++n;
      if (line.empty()) continue;
      const engine::PlanResult res =
          engine.run(engine::parse_request(line, file.filename().string(), n));
      EXPECT_TRUE(res.ok) << file.filename().string() << ":" << n << ": " << res.error;
    }
  }
}

TEST(Corpus, ProcessorCycleLosesEveryModuleInsteadOfGettingStuck) {
  // With the ATE input cut off, no processor can take its own test, so
  // none can serve: the whole SoC is untestable and the plan is empty.
  const engine::PlanResult res = run_first_request("replan_processor_cycle.jsonl");
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.faulted);
  EXPECT_TRUE(res.dead_modules.empty());
  EXPECT_EQ(res.untestable_modules, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_TRUE(res.schedule.sessions.empty());
  EXPECT_EQ(res.schedule.makespan, 0u);
}

}  // namespace
