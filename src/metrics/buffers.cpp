#include "src/metrics/buffers.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <stdexcept>

namespace streamcast::metrics {

namespace {

/// Rows whose series spans at most this many slots count their arrivals on
/// the stack; the default windows span a few dozen to about 150.
constexpr std::size_t kStackSlots = 256;

/// The series' last slot: the one the final window packet plays in, or the
/// last arrival if later.
Slot last_slot(std::span<const Slot> arrivals, Slot start) {
  assert(!arrivals.empty());
  Slot last = start + static_cast<Slot>(arrivals.size()) - 1;
  for (const Slot a : arrivals) {
    if (a < 0) throw std::logic_error("occupancy of an incomplete window");
    last = std::max(last, a);
  }
  return last;
}

/// Calls visit(occ(t)) for t = 0 .. last in order. `received_delta` holds
/// last + 1 zeros on entry.
template <typename Visit>
void sweep(std::span<const Slot> arrivals, Slot start, Slot last,
           std::span<std::uint32_t> received_delta, Visit visit) {
  // received_delta[t] = packets received in slot t.
  for (const Slot a : arrivals) ++received_delta[static_cast<std::size_t>(a)];

  // Peak (during-slot) occupancy: a packet occupies the buffer through the
  // slot in which it is played, so occ(t) counts packets received by t minus
  // packets played strictly before t. This matches the paper's node-1
  // example (§2.3): arrivals in slots 0,2,1 with playback from slot 3 peak
  // at a buffer of 3.
  const auto window = static_cast<PacketId>(arrivals.size());
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
    visit(received - played_before);
  }
}

}  // namespace

std::vector<std::size_t> occupancy_series(std::span<const Slot> arrivals,
                                          Slot start) {
  const Slot last = last_slot(arrivals, start);
  std::vector<std::uint32_t> received_delta(static_cast<std::size_t>(last) +
                                            1);
  std::vector<std::size_t> series;
  series.reserve(static_cast<std::size_t>(last) + 1);
  sweep(arrivals, start, last, received_delta,
        [&](std::size_t occ) { series.push_back(occ); });
  return series;
}

std::size_t max_buffer_occupancy(std::span<const Slot> arrivals, Slot start) {
  const Slot last = last_slot(arrivals, start);
  const auto slots = static_cast<std::size_t>(last) + 1;
  // Counting on the stack keeps aggregation over a run's receivers free of
  // allocations; only an unusually long row takes the heap.
  std::array<std::uint32_t, kStackSlots> local{};
  std::vector<std::uint32_t> heap;
  std::span<std::uint32_t> received_delta(local);
  if (slots > kStackSlots) {
    heap.resize(slots);
    received_delta = heap;
  }
  std::size_t peak = 0;
  sweep(arrivals, start, last, received_delta.first(slots),
        [&](std::size_t occ) { peak = std::max(peak, occ); });
  return peak;
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
