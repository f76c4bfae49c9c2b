// streamcast: hot-path (lint: hot-path-alloc applies to this file)
//
// Playback-delay accounting (§2.3 of the paper).
//
// The recorder observes deliveries for a fixed window of packets [0, window)
// and computes, per node, the playback delay
//     a(i) = max_j (recv_i(j) - j),
// the smallest start slot such that playing packet j in slot a(i)+j never
// stalls (a packet may play in the slot it arrives; DESIGN.md §3).
//
// Layout (DESIGN.md §11): one int32 arrival *delta* (recv − packet) per
// (node, packet) cell in a flat [node][packet] matrix, plus a per-node
// missing count and running max delta. playback_delay() is O(1), and every
// arrival row is rebuilt exactly (arrival = packet + delta), so the layout
// is a memory optimization, not an approximation. The same matrix backs
// the ContinuityRecorder's stall replay.
//
// The recorder takes a slot's arrivals as one span (DESIGN.md §8) and
// prefetches the delta cell of the arrival kPrefetchAhead places ahead:
// every receiver takes one packet per slot, so above ~10^4 nodes each
// arrival's cell misses L2, and the prefetch overlaps those misses.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "src/sim/engine.hpp"
#include "src/util/budget.hpp"

namespace streamcast::metrics {

using sim::Delivery;
using sim::NodeKey;
using sim::PacketId;
using sim::Slot;

inline constexpr Slot kNeverArrived = -1;

class DelayRecorder final : public sim::DeliveryObserver {
 public:
  /// How many arrivals ahead of the one being recorded the span loop
  /// prefetches.
  static constexpr std::size_t kPrefetchAhead = 12;

  /// Tracks nodes [0, nodes) and packets [0, window). Deliveries outside the
  /// window or the node range are ignored (the schemes stream forever; the
  /// window is where we measure). A non-null `ledger` is charged for the
  /// matrix before it is allocated.
  DelayRecorder(NodeKey nodes, PacketId window,
                util::BudgetLedger* ledger = nullptr);

  void on_deliveries(std::span<const Delivery> arrivals) override;

  /// First arrival slot of packet p at node, or kNeverArrived.
  Slot arrival(NodeKey node, PacketId p) const {
    assert(p >= 0 && p < window_);
    const std::int32_t delta = row(node)[static_cast<std::size_t>(p)];
    return delta == kNoDelta ? kNeverArrived : p + delta;
  }

  /// The node's window row, row[j] = arrival(node, j), resized to the
  /// window.
  // lint: allow(hot-path-alloc) — caller-owned scratch row, reused
  void arrivals(NodeKey node, std::vector<Slot>& row) const;

  /// True iff node received every packet in the window.
  bool complete(NodeKey node) const {
    return missing_[static_cast<std::size_t>(node)] == 0;
  }

  /// Playback delay a(node); nullopt until the node's window is complete.
  std::optional<Slot> playback_delay(NodeKey node) const;

  /// Worst / average playback delay over nodes [from, to] inclusive.
  /// Precondition: every node in the range is complete.
  Slot worst_delay(NodeKey from, NodeKey to) const;
  double average_delay(NodeKey from, NodeKey to) const;

  /// All per-node delays over [from, to] inclusive, in node order.
  // lint: allow(hot-path-alloc) — aggregation-time result, once per call
  std::vector<Slot> delays(NodeKey from, NodeKey to) const;

  PacketId window() const { return window_; }
  NodeKey nodes() const { return static_cast<NodeKey>(missing_.size()); }

 private:
  /// Delta of a packet that has not arrived.
  static constexpr std::int32_t kNoDelta =
      std::numeric_limits<std::int32_t>::min();

  const std::int32_t* row(NodeKey node) const {
    return delta_.data() +
           static_cast<std::size_t>(node) * static_cast<std::size_t>(window_);
  }
  /// d's delta cell, or null when d lies outside the window or node range.
  std::int32_t* cell(const Delivery& d);
  void record(const Delivery& d);

  PacketId window_;
  /// Flat [node][packet] arrival deltas, stride window_.
  // lint: allow(hot-path-alloc) — sized once in the constructor
  std::vector<std::int32_t> delta_;
  /// Packets still unseen per node.
  // lint: allow(hot-path-alloc) — sized once in the constructor
  std::vector<PacketId> missing_;
  /// Running max delta per node (kNoDelta until the first arrival).
  // lint: allow(hot-path-alloc) — sized once in the constructor
  std::vector<std::int32_t> best_;
};

}  // namespace streamcast::metrics
