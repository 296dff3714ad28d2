#pragma once
// Deterministic dimension-ordered (XY) routing.

#include <vector>

#include "noc/mesh.hpp"

namespace nocsched::noc {

/// Directed channels visited by an XY route from `from` to `to`:
/// first along X to the destination column, then along Y.  Empty when
/// `from == to` (core and interface on the same router use local ports).
[[nodiscard]] std::vector<ChannelId> xy_route(const Mesh& mesh, RouterId from, RouterId to);

/// The same route written into `out` (cleared first), whose capacity a
/// caller routing many legs keeps between calls.
void xy_route(const Mesh& mesh, RouterId from, RouterId to, std::vector<ChannelId>& out);

}  // namespace nocsched::noc
