// streamcast: hot-path (lint: hot-path-alloc applies to this file)
//
// Playback-continuity accounting — the smoothness axis of Joshi et al.
// ("Throughput-Smoothness Trade-offs in Multicasting of an Ordered Packet
// Stream") for lossy runs.
//
// The paper's playback delay a(i) is the smallest start slot such that
// playing packet j in slot a(i)+j never stalls. Under loss a receiver that
// commits to some start slot may stall anyway: the ContinuityRecorder
// replays that decision post-hoc. Playback starts at `playback_start`,
// consumes one packet per slot, stalls while the next packet has not yet
// arrived, and skips packets that never arrive by the horizon (undecodable
// gaps). A run with zero stalls and zero undecodable packets is exactly a
// run whose playback delay is <= playback_start — the bridge between the
// paper's delay metric and the stall metrics reported here (DESIGN.md,
// "Loss & Recovery").
//
// The recorder owns no arrival matrix: it replays the rows of a
// DelayRecorder that observes the same stream. Attach both to the
// RecoveryProtocol (post-repair stream), not the engine, so repaired and
// FEC-decoded packets count as arrivals; the recorder itself tallies repair
// traffic (retransmissions, parity) for the redundancy overhead figure.
// Playback reads first arrivals, which are the earliest arrivals: observed
// streams deliver in slot order.
#pragma once

#include <span>
#include <vector>

#include "src/metrics/delay.hpp"
#include "src/sim/engine.hpp"

namespace streamcast::metrics {

class ContinuityRecorder final : public sim::DeliveryObserver {
 public:
  /// Replays the arrival rows of `arrivals`, which must observe the same
  /// stream and outlive the recorder.
  explicit ContinuityRecorder(const DelayRecorder& arrivals);

  void on_deliveries(std::span<const Delivery> arrivals) override;

  struct Report {
    /// Maximal stall intervals (consecutive stalled slots count once).
    int stalls = 0;
    /// Total slots spent stalled.
    Slot stall_slots = 0;
    /// Packets of the window that never arrived by the horizon.
    PacketId undecodable = 0;
    /// Lengths of the maximal runs of undecodable packets (the gap
    /// distribution; empty when the stream is complete).
    // lint: allow(hot-path-alloc) — per report, grows only at a gap's end
    std::vector<PacketId> gap_lengths;
    /// Slot after the last played packet (horizon if playback never
    /// finished).
    Slot finish_slot = 0;
  };

  /// Replays playback for `node` starting at slot `playback_start` with
  /// everything that arrived before `horizon`.
  Report report(NodeKey node, Slot playback_start, Slot horizon) const;

  /// Earliest arrival slot of any window packet at node, or
  /// metrics::kNeverArrived when nothing arrived (startup policies anchor
  /// their prebuffer here).
  Slot first_arrival(NodeKey node) const;

  /// Repair traffic per data delivery observed: (retransmissions + parity)
  /// / data deliveries.
  double redundancy_overhead() const;

  std::int64_t data_deliveries() const { return data_; }
  std::int64_t repair_deliveries() const { return retransmissions_; }
  std::int64_t parity_deliveries() const { return parity_; }

 private:
  const DelayRecorder& arrivals_;
  std::int64_t data_ = 0;
  std::int64_t retransmissions_ = 0;
  std::int64_t parity_ = 0;
};

}  // namespace streamcast::metrics
