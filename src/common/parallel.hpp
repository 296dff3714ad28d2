#pragma once
// Minimal deterministic fork-join parallelism.
//
// parallel_for distributes the indices [0, n) over a fixed set of
// worker threads that claim indices from one shared atomic counter —
// no work stealing, no task queue.  Callers that want results
// independent of the job count must make each index's work
// self-contained (own RNG stream, own output slot) and reduce
// serially afterwards; the order-search driver is the model user.
// Threads are spawned per call: the intended grain is milliseconds of
// work per index, where spawn cost is noise.

#include <cstddef>
#include <functional>

namespace nocsched {

/// Worker count meaning "use every hardware thread": max(1,
/// std::thread::hardware_concurrency()).
[[nodiscard]] unsigned hardware_jobs();

/// Run body(i) for every i in [0, n) on up to `jobs` threads (0 means
/// hardware_jobs(); <= 1 runs inline on the caller).  Blocks until all
/// indices finish.  If bodies throw, every index still runs and the
/// exception from the lowest-numbered throwing index is rethrown — so
/// failure behaviour, like success behaviour, does not depend on the
/// job count.
void parallel_for(std::size_t n, unsigned jobs, const std::function<void(std::size_t)>& body);

}  // namespace nocsched
