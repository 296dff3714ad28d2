#pragma once
// Per-call fault-aware routing — the test oracle for noc::FaultRouter.
//
// Every call rebuilds the surviving channel graph and runs a fresh BFS,
// so no answer can depend on an earlier one.  The production router
// keeps the graph and each destination's distance field between calls;
// the tests/fault oracle suite asks both the same questions in shuffled
// orders and requires identical answers.

#include <optional>
#include <vector>

#include "noc/fault.hpp"

namespace nocsched::noc {

/// The XY route from `from` to `to` when it survives `faults`,
/// otherwise the lexicographically-smallest (by channel id) shortest
/// path over the surviving channel graph; empty when `from == to`;
/// nullopt when either endpoint router has failed or no surviving path
/// exists.
[[nodiscard]] std::optional<std::vector<ChannelId>> reference_fault_route(
    const Mesh& mesh, const FaultSet& faults, RouterId from, RouterId to);

}  // namespace nocsched::noc
