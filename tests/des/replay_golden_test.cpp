// Golden pin of the flit-level replay's observable output.
//
// For fixed inputs, a 64-bit FNV-1a digest of report::trace_json (every
// session's timing, blocked cycles and flit counts, every channel's
// busy cycles and packet count, and the cross-check verdict) is pinned
// together with events_processed and packets_delivered.  A change to
// the replay's event order or timing moves at least one entry, so a
// refactor or speedup of src/des must leave these tables untouched; a
// deliberate model change re-pins them (a failure prints the new table
// in source form).

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/pair_table.hpp"
#include "core/scheduler.hpp"
#include "des/replay.hpp"
#include "report/trace_report.hpp"
#include "search/replan.hpp"
#include "sim/cross_check.hpp"
#include "support/random_system.hpp"

namespace nocsched::des {
namespace {

using core::PlannerParams;
using core::Schedule;
using core::SystemModel;

struct Digest {
  std::uint64_t hash = 0;
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  bool operator==(const Digest&) const = default;
};

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// The trace's JSON report, plus the lost sessions of a degraded replay.
Digest digest(const SystemModel& sys, const Schedule& plan, const DegradedReplay& replayed) {
  std::string bytes =
      report::trace_json(sys, replayed.trace, sim::cross_check(sys, plan, replayed.trace));
  for (const LostSession& l : replayed.lost) {
    bytes += cat("lost ", l.module_id, ": ", l.reason, "\n");
  }
  return {fnv1a(bytes), replayed.trace.events_processed, replayed.trace.packets_delivered};
}

std::string table_source(const std::vector<Digest>& digests) {
  std::ostringstream os;
  for (const Digest& d : digests) {
    os << "      {0x" << std::hex << std::setw(16) << std::setfill('0') << d.hash << std::dec
       << "ULL, " << d.events << ", " << d.packets << "},\n";
  }
  return os.str();
}

void expect_pinned(const std::vector<Digest>& got, const std::vector<Digest>& pinned) {
  EXPECT_EQ(got, pinned) << "replay output moved; observed table:\n" << table_source(got);
}

TEST(ReplayGolden, PaperSystems) {
  std::vector<Digest> got;
  for (const char* soc : {"d695", "p22810", "p93791"}) {
    for (const auto kind : {itc02::ProcessorKind::kLeon, itc02::ProcessorKind::kPlasma}) {
      const SystemModel sys = SystemModel::paper_system(soc, kind, 4, PlannerParams::paper());
      for (const bool limited : {false, true}) {
        const power::PowerBudget budget =
            limited ? power::PowerBudget::fraction_of_total(sys.soc(), 0.5)
                    : power::PowerBudget::unconstrained();
        const Schedule plan = core::plan_tests(sys, budget);
        got.push_back(digest(sys, plan, {replay(sys, plan), {}}));
      }
    }
  }
  // soc x {leon, plasma} x {unconstrained, 50% power}
  expect_pinned(got, {
      {0xc5abe8e331a0f20aULL, 12716, 2018},
      {0xe59891f3d1d50b4eULL, 12321, 2018},
      {0xa1ecc7fd1ae79715ULL, 12679, 1970},
      {0x7c60d5e39bf11ae6ULL, 12235, 1970},
      {0x307df265317bbe31ULL, 80731, 9406},
      {0xff2941c9161d8578ULL, 78571, 9406},
      {0xb73d7c686e6c3099ULL, 87602, 9358},
      {0x81a82dc63ea1e428ULL, 87602, 9358},
      {0x7d3b1fe84c96b0c1ULL, 69414, 8424},
      {0x71f8504139091f77ULL, 69414, 8424},
      {0x608fb4a83e5e16bbULL, 76956, 8376},
      {0x31b73c4979ffa678ULL, 76956, 8376},
  });
}

TEST(ReplayGolden, DegradedAndMidTimelineEpochs) {
  std::vector<Digest> got;
  {
    // A cut mid-mesh link detours traffic; a dead processor loses its
    // own test and every session it serves.
    const SystemModel sys =
        SystemModel::paper_system("d695", itc02::ProcessorKind::kLeon, 4, PlannerParams::paper());
    const Schedule plan = core::plan_tests(sys, power::PowerBudget::unconstrained());
    noc::FaultSet faults;
    faults.fail_channel(sys.mesh().channel_count() / 2);
    faults.fail_processor(sys.soc().processor_ids().front());
    got.push_back(digest(sys, plan, replay_degraded(sys, plan, faults)));
  }
  {
    // A later timeline epoch: half the processors passed their own test
    // earlier and serve from instant 0, a link is cut, and the epoch
    // plans every other module.
    const SystemModel sys = SystemModel::paper_system("p22810", itc02::ProcessorKind::kPlasma,
                                                      4, PlannerParams::paper());
    const power::PowerBudget budget = power::PowerBudget::fraction_of_total(sys.soc(), 0.6);
    noc::FaultSet faults;
    faults.fail_channel(sys.mesh().channel_count() / 3);
    std::vector<int> pretested;
    std::vector<bool> candidates(sys.soc().modules.size(), true);
    const std::vector<int> procs = sys.soc().processor_ids();
    for (std::size_t i = 0; i < procs.size(); i += 2) {
      pretested.push_back(procs[i]);
      candidates[static_cast<std::size_t>(procs[i] - 1)] = false;
    }
    const search::ReplanResult epoch =
        search::replan_subset(sys, budget, faults, search::SearchOptions{},
                              core::PairTable(sys, faults), 0, candidates, pretested);
    got.push_back(
        digest(sys, epoch.schedule, replay_degraded(sys, epoch.schedule, faults, pretested)));
  }
  expect_pinned(got, {
      {0xb6c501fce77e08e6ULL, 8583, 1142},
      {0x628ac76c25807961ULL, 85518, 9254},
  });
}

TEST(ReplayGolden, SeededRandomSystems) {
  std::vector<Digest> got;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Rng rng = stream_rng(0xDE5601D, seed);
    const SystemModel sys = support::random_system(rng, support::params_variant(seed % 16));
    Schedule plan;
    try {
      plan = core::plan_tests(sys, seed % 2 == 1
                                       ? power::PowerBudget::fraction_of_total(sys.soc(), 0.6)
                                       : power::PowerBudget::unconstrained());
    } catch (const Error&) {
      // Some core draws more than the limit alone: plan without one.
      plan = core::plan_tests(sys, power::PowerBudget::unconstrained());
    }
    got.push_back(digest(sys, plan, {replay(sys, plan), {}}));
  }
  expect_pinned(got, {
      {0x9c94a9b044fa97c8ULL, 4549, 1272},
      {0x31b1745e56667ea5ULL, 4664, 1384},
      {0xda6dac703537c698ULL, 2799, 566},
      {0x74b78562c9bf6fd7ULL, 6175, 830},
      {0x43ef244c949bd085ULL, 7542, 1088},
      {0xdfe8e50a9f52282dULL, 3317, 702},
      {0xe1d89bfb35d9f5e9ULL, 4772, 576},
      {0x86ce198af220d4c5ULL, 2733, 624},
      {0xe0f91c8cf9b93ee6ULL, 7681, 1408},
      {0xae094668848f96a1ULL, 12746, 1850},
      {0x1fbb3b098429ebbdULL, 6150, 1666},
      {0x2040e9dc9ace9f54ULL, 4784, 1180},
      {0x035a1583c964c7ebULL, 4253, 836},
      {0x9ef2a73c8419b0aeULL, 6886, 1132},
      {0xeacf4b460aab0b49ULL, 5365, 1306},
      {0xf65dc03a91f578abULL, 6037, 686},
      {0x76a77d5f31d2c05dULL, 5672, 940},
      {0x8c939bac71778167ULL, 4346, 866},
      {0x8602215e4d893173ULL, 4945, 1038},
      {0x2b896733e3d3f8c8ULL, 3641, 784},
      {0xda2cfc9ca1313f89ULL, 5230, 1116},
      {0x3555954f0cbf5122ULL, 4161, 840},
      {0xa9a1bedff5bb3b7aULL, 4424, 1074},
      {0x9be352903ac59d4dULL, 1650, 230},
      {0x0edd5f9502a6ffe1ULL, 6641, 1064},
      {0x8dfca7f41d4fc584ULL, 2409, 472},
      {0x9bb16b6a0e28e9d9ULL, 9532, 1222},
      {0x57b5a2ad76e92094ULL, 1748, 340},
      {0x6d0a0c6198c2ee19ULL, 4885, 1322},
      {0x8e6c868545497646ULL, 6346, 952},
      {0x8ac1e16b380ad10bULL, 2885, 412},
      {0xeae7e23c6fa1579aULL, 8146, 1274},
      {0x8042ea1fd09e0ed2ULL, 8303, 1186},
      {0x4f82fb87fdfe14ddULL, 9378, 1394},
      {0x3821c9805c977d9fULL, 8367, 1428},
      {0x63f869543a122296ULL, 6483, 834},
      {0xbac441aa1336843dULL, 2389, 422},
      {0x54128fd5162765eaULL, 5847, 854},
      {0x9a1e33e9b83179afULL, 6196, 1202},
      {0xe4fa6ba068092b1bULL, 5231, 994},
      {0x4e156aec6ca0f7c3ULL, 14896, 2020},
      {0x99ba1e2dd84d815dULL, 7743, 890},
      {0xaae9de02f0d3c138ULL, 7591, 1434},
      {0x76624c79b08ddb52ULL, 2486, 488},
      {0xbb52f0723ad2c437ULL, 3761, 1188},
      {0xfaf95d25e15a63fdULL, 12842, 1664},
      {0xcb5669e15259cfd4ULL, 10810, 1298},
      {0x19b77c184fbfa99aULL, 5852, 1038},
      {0xa9edf436e97d71e3ULL, 5652, 814},
      {0x0c914040608729b7ULL, 5114, 1102},
      {0x6da7203b9b6d6952ULL, 7758, 1168},
      {0xf4ec0d5a2a81fce1ULL, 6957, 1562},
      {0x0cb920358db478d6ULL, 3767, 738},
      {0x0e8acaa21b28011bULL, 6636, 1502},
      {0x9d556e674a81a72eULL, 7562, 1312},
      {0x1809512f92182c89ULL, 6882, 942},
      {0xb854886c6b91a480ULL, 2408, 638},
      {0x6ea6d114bbd14100ULL, 7628, 1052},
      {0xc3d26bbc6db2c161ULL, 8479, 1600},
      {0xfac303dfac912a45ULL, 5609, 984},
      {0xea59b5f8b07e949aULL, 2893, 582},
      {0xb22c11446b2d8e5dULL, 1409, 226},
      {0x97a015d73105af66ULL, 13861, 1648},
      {0x0ff9791dbc68528bULL, 3603, 766},
  });
}

}  // namespace
}  // namespace nocsched::des
