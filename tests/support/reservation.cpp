#include "support/reservation.hpp"

#include "common/error.hpp"

namespace nocsched::noc {

ChannelReservations::ChannelReservations(const Mesh& mesh)
    : tables_(static_cast<std::size_t>(mesh.channel_count())) {}

bool ChannelReservations::path_free(std::span<const ChannelId> path, const Interval& iv) const {
  for (ChannelId c : path) {
    if (channel(c).conflicts(iv)) return false;
  }
  return true;
}

void ChannelReservations::reserve(std::span<const ChannelId> path, const Interval& iv) {
  ensure(path_free(path, iv), "ChannelReservations: conflicting reservation [", iv.start, ", ",
         iv.end, ")");
  for (ChannelId c : path) {
    tables_[static_cast<std::size_t>(c)].insert(iv);
  }
}

std::uint64_t ChannelReservations::earliest_path_fit(std::span<const ChannelId> path,
                                                     std::uint64_t from,
                                                     std::uint64_t len) const {
  std::uint64_t t = from;
  // Fixed point: every channel may push the start later; repeat until
  // no channel moves it.  Terminates because t only increases and each
  // channel has finitely many reservations.
  bool moved = true;
  while (moved) {
    moved = false;
    for (ChannelId c : path) {
      const std::uint64_t fit = channel(c).earliest_fit(t, len);
      if (fit != t) {
        t = fit;
        moved = true;
      }
    }
  }
  return t;
}

const IntervalSet& ChannelReservations::channel(ChannelId c) const {
  ensure(c >= 0 && static_cast<std::size_t>(c) < tables_.size(),
         "ChannelReservations: bad channel id ", c);
  return tables_[static_cast<std::size_t>(c)];
}

void ChannelReservations::clear() {
  for (IntervalSet& t : tables_) t.clear();
}

}  // namespace nocsched::noc
