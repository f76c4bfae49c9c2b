// Hypercube streaming protocol for the slot engine (§3).
//
// Drives any set of independent chains (one for the plain arbitrary-N scheme
// of §3.2, d of them for the grouped variant). Node keys: 0 = source,
// receivers 1..N as assigned by the decomposition.
//
// Per slot t, per segment with local time tau = t - start >= 0 and pairing
// dimension j = tau mod k:
//   * Injection: the pair (0, 2^j). For the first segment the real source
//     sends packet tau; for segment s >= 1 the feeder of segment s-1 (its
//     own vertex paired with 0 this slot) sends packet tau, which is exactly
//     the packet its cube consumed in the previous slot.
//   * Exchange: every other pair (u, w) swaps at most one packet in each
//     direction — each side sends the oldest packet it holds that the other
//     lacks. This greedy rule realizes Figure 5's doubling invariant:
//     at the end of slot t, packet m is held by min(2^(t-m), 2^k-1) nodes.
//   * Consumption: packet m leaves every buffer of the segment after its
//     cube-wide consumption slot start + m + k.
//
// streamcast: hot-path (lint: hot-path-alloc applies to this file)
//
// A node's buffer is one 64-bit word anchored at its segment's consumption
// cursor: bit i means it holds packet next_consume + i. The word holds every
// case, lossy links included: retirement leaves next_consume >= tau - k, no
// packet above tau exists in the segment yet (repairs only fill gaps below a
// node's highest held id), and deliver() refuses ids below the cursor, so
// every held offset is at most k <= floor(log2(N + 1)) <= 31. Retiring a
// packet shifts each member's word right by one; the exchange takes the
// lowest set bit of `mine & ~theirs`.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/hypercube/arbitrary.hpp"
#include "src/sim/protocol.hpp"

namespace streamcast::hypercube {

using sim::PacketId;
using sim::Tx;

class HypercubeProtocol final : public sim::Protocol {
 public:
  /// `source_key` is the node that injects fresh packets into each chain's
  /// first segment: the global source 0 for single-cluster streaming, a
  /// cluster's local root S'_i inside the super-tree composition.
  // lint: allow(hot-path-alloc) — the chains, taken once at construction
  explicit HypercubeProtocol(std::vector<std::vector<Segment>> chains,
                             NodeKey source_key = 0);

  // lint: allow(hot-path-alloc) — appends to the engine's slot list
  void transmit(Slot t, std::vector<Tx>& out) override;
  /// Throws std::logic_error for a node outside every cube or a packet
  /// beyond the node's buffer word (both impossible in a valid schedule).
  void deliver(Slot t, const Tx& tx) override;

  /// Total receivers across all chains.
  NodeKey receivers() const { return receivers_; }

  /// Marks a receiver as crashed *before* running: it neither sends nor
  /// receives from then on. Used by the resilience experiments — the cube
  /// has no per-packet redundancy, so a failure shadows every packet's
  /// doubling pattern (contrast with the multi-tree's d descriptions).
  void fail_node(NodeKey key);

  /// Packets currently buffered by a receiver (received, not yet consumed).
  std::size_t buffered(NodeKey key) const;
  /// Largest buffer ever observed across all receivers (Proposition 1/2's
  /// O(1) claim, measured).
  std::size_t max_buffered() const { return max_buffered_; }

 private:
  struct SegState {
    Segment seg;
    PacketId next_consume = 0;
  };

  // lint: allow(hot-path-alloc) — one entry per segment, fixed at setup
  std::vector<std::vector<SegState>> chains_;
  NodeKey source_key_ = 0;
  /// The lowest key among the source and the receivers: the per-node
  /// arrays below are indexed by key - base_, so a cluster inside the
  /// super-tree composition sizes them by its own keys alone.
  NodeKey base_ = 0;
  /// By node: bit i = holds packet next_consume + i of the node's
  /// segment; [source] stays 0.
  // lint: allow(hot-path-alloc) — one word per node, sized once
  std::vector<std::uint64_t> held_;
  // lint: allow(hot-path-alloc) — crashed receivers, sized once
  std::vector<bool> failed_;
  /// Node -> (chain, segment) of the cube the node belongs to; {-1, -1}
  /// for the source.
  // lint: allow(hot-path-alloc) — one entry per node, sized once
  std::vector<std::pair<std::int32_t, std::int32_t>> seg_of_;
  NodeKey receivers_ = 0;
  std::size_t max_buffered_ = 0;

  /// Index of `key` in the per-node arrays.
  std::size_t at(NodeKey key) const {
    return static_cast<std::size_t>(key - base_);
  }
};

}  // namespace streamcast::hypercube
