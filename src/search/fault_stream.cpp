#include "search/fault_stream.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace nocsched::search {

noc::FaultSet FaultStream::cumulative(std::size_t upto) const {
  ensure(upto <= events.size(), "FaultStream::cumulative: prefix ", upto, " of ",
         events.size(), " events");
  noc::FaultSet faults;
  for (std::size_t i = 0; i < upto; ++i) merge_faults(faults, events[i].increment);
  return faults;
}

void merge_faults(noc::FaultSet& faults, const noc::FaultSet& increment) {
  for (const noc::ChannelId c : increment.failed_channels()) faults.fail_channel(c);
  for (const noc::RouterId r : increment.failed_routers()) faults.fail_router(r);
  for (const int p : increment.failed_processors()) faults.fail_processor(p);
}

FaultStream random_fault_stream(const core::SystemModel& sys, std::size_t k,
                                std::uint64_t seed, std::uint64_t horizon) {
  ensure(k > 0, "random_fault_stream: need at least one event");
  const std::vector<int> procs = sys.soc().processor_ids();
  ensure(sys.mesh().channel_count() > 0 || !procs.empty(),
         "random_fault_stream: system has nothing to break");

  Rng rng = stream_rng(seed, 0x57F3A);
  // k distinct injection cycles in [1, max(horizon, k)] — horizon is
  // typically the pristine makespan, so events land mid-execution.
  const std::uint64_t span = std::max<std::uint64_t>(horizon, k);
  std::set<std::uint64_t> cycles;
  while (cycles.size() < k) cycles.insert(1 + rng.below(span));

  // True when `inc` breaks silicon `cum` has not broken yet.
  auto adds_new = [](const noc::FaultSet& cum, const noc::FaultSet& inc) {
    for (const noc::ChannelId c : inc.failed_channels()) {
      if (!cum.channel_failed(c)) return true;
    }
    for (const noc::RouterId r : inc.failed_routers()) {
      if (!cum.router_failed(r)) return true;
    }
    for (const int p : inc.failed_processors()) {
      if (!cum.processor_failed(p)) return true;
    }
    return false;
  };

  FaultStream stream;
  noc::FaultSet cumulative;
  for (const std::uint64_t cycle : cycles) {
    noc::FaultSet increment = noc::random_fault_scenario(sys.mesh(), procs, rng);
    // Prefer an increment that actually degrades something new; on a
    // small mesh late events may exhaust the options, in which case the
    // redundant draw stands (the timeline treats it as a no-op).
    for (int retry = 0; retry < 8 && (increment.empty() || !adds_new(cumulative, increment));
         ++retry) {
      increment = noc::random_fault_scenario(sys.mesh(), procs, rng);
    }
    ensure(!increment.empty(), "random_fault_stream: drew an empty fault scenario");
    merge_faults(cumulative, increment);
    stream.events.push_back({cycle, std::move(increment)});
  }
  return stream;
}

}  // namespace nocsched::search
