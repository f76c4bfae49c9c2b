// streamcast: hot-path (lint: hot-path-alloc applies to this file)
#include "src/metrics/continuity.hpp"

namespace streamcast::metrics {

ContinuityRecorder::ContinuityRecorder(const DelayRecorder& arrivals)
    : arrivals_(arrivals) {}

void ContinuityRecorder::on_deliveries(std::span<const Delivery> arrivals) {
  for (const Delivery& d : arrivals) {
    if (d.tx.packet >= sim::kControlIdBase) {
      ++parity_;
    } else if (d.tx.retransmit) {
      ++retransmissions_;
    } else {
      ++data_;
    }
  }
}

Slot ContinuityRecorder::first_arrival(NodeKey node) const {
  Slot first = kNeverArrived;
  for (PacketId j = 0; j < arrivals_.window(); ++j) {
    const Slot got = arrivals_.arrival(node, j);
    if (got == kNeverArrived) continue;
    if (first == kNeverArrived || got < first) first = got;
  }
  return first;
}

ContinuityRecorder::Report ContinuityRecorder::report(NodeKey node,
                                                      Slot playback_start,
                                                      Slot horizon) const {
  Report r;
  Slot t = playback_start;
  PacketId gap_run = 0;
  for (PacketId j = 0; j < arrivals_.window(); ++j) {
    const Slot got = arrivals_.arrival(node, j);
    if (got == kNeverArrived || got >= horizon) {
      // Never decodable within the run: playback skips the packet.
      ++r.undecodable;
      ++gap_run;
      continue;
    }
    if (gap_run > 0) {
      r.gap_lengths.push_back(gap_run);
      gap_run = 0;
    }
    if (got > t) {
      // Wait for the packet. Consecutive packets that both stall are
      // separated by the first one playing, so each wait is its own stall
      // event; the slots spent waiting for one packet count once.
      ++r.stalls;
      r.stall_slots += got - t;
      t = got;
    }
    ++t;  // the packet plays during slot t
  }
  if (gap_run > 0) r.gap_lengths.push_back(gap_run);
  r.finish_slot = t;
  return r;
}

double ContinuityRecorder::redundancy_overhead() const {
  if (data_ == 0) return 0.0;
  return static_cast<double>(retransmissions_ + parity_) /
         static_cast<double>(data_);
}

}  // namespace streamcast::metrics
