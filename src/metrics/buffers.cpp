#include "src/metrics/buffers.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace streamcast::metrics {

std::vector<std::size_t> occupancy_series(std::span<const Slot> arrivals,
                                          Slot start) {
  assert(!arrivals.empty());
  const auto window = static_cast<PacketId>(arrivals.size());
  Slot last = start + window - 1;  // slot the final window packet plays
  for (const Slot a : arrivals) {
    if (a < 0) throw std::logic_error("occupancy of an incomplete window");
    last = std::max(last, a);
  }
  // received_by[t] = packets with recv <= t.
  std::vector<std::size_t> received_delta(static_cast<std::size_t>(last) + 2,
                                          0);
  for (const Slot a : arrivals) ++received_delta[static_cast<std::size_t>(a)];

  // Peak (during-slot) occupancy: a packet occupies the buffer through the
  // slot in which it is played, so occ(t) counts packets received by t minus
  // packets played strictly before t. This matches the paper's node-1
  // example (§2.3): arrivals in slots 0,2,1 with playback from slot 3 peak
  // at a buffer of 3.
  std::vector<std::size_t> series(static_cast<std::size_t>(last) + 1, 0);
  std::size_t received = 0;
  for (Slot t = 0; t <= last; ++t) {
    received += received_delta[static_cast<std::size_t>(t)];
    const auto played_before =
        static_cast<std::size_t>(std::clamp<Slot>(t - start, 0, window));
    // A packet played before it arrived would make this underflow; callers
    // must pass start >= the node's playback delay.
    if (received < played_before) {
      throw std::logic_error("playback start precedes feasibility");
    }
    series[static_cast<std::size_t>(t)] = received - played_before;
  }
  return series;
}

std::size_t max_buffer_occupancy(std::span<const Slot> arrivals, Slot start) {
  const auto series = occupancy_series(arrivals, start);
  return *std::ranges::max_element(series);
}

std::vector<std::size_t> max_occupancies(const DelayRecorder& delays,
                                         NodeKey from, NodeKey to) {
  std::vector<std::size_t> out;
  out.reserve(static_cast<std::size_t>(to - from + 1));
  std::vector<Slot> row;
  for (NodeKey n = from; n <= to; ++n) {
    const auto a = delays.playback_delay(n);
    if (!a) throw std::logic_error("incomplete node window");
    delays.arrivals(n, row);
    out.push_back(max_buffer_occupancy(row, *a));
  }
  return out;
}

}  // namespace streamcast::metrics
