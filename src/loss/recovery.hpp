// streamcast: hot-path (lint: hot-path-alloc applies to this file)
//
// Recovery decorator: wraps any sim::Protocol so it survives lossy links.
//
// The paper's schemes were designed for reliable links; under erasures they
// misbehave in scheme-specific ways (a multi-tree interior's cursor would
// forward packets it never received, a chain node would relay a stale packet
// twice). RecoveryProtocol sits between the engine and the wrapped protocol
// and restores correctness generically:
//
//  * Sequence tracking — per node, the gap-free prefix plus a bitmap of the
//    packets received ahead of it (SequenceTracker). This is both the repair
//    trigger and the acceptance criterion ("every node eventually holds a
//    gap-free prefix").
//  * Causality enforcement — a transmission of a packet the sender does not
//    hold is suppressed (the lossless schedule assumed it had arrived), as
//    is a transmission the receiver already holds or that is already in
//    flight (duplicate-free invariant preserved under loss).
//  * In-order hand-off — deliveries are released to the wrapped protocol in
//    packet order per (receiver, tag) substream, holding back arrivals that
//    overtook a known-lost packet. The schemes' in-order invariants
//    (multi-tree congruence) therefore hold verbatim under loss.
//
// The repair *strategy* — what to do about a detected gap — is a
// policy::RecoveryPolicy looked up in the policy registry
// (src/policy/registry.hpp): `none`, `nack`, `xor-parity`, or
// `streaming-code`. RecoveryProtocol is the policy's RecoveryHost: it owns
// the trackers, the in-order gate, and the residual-capacity accounting,
// and fires the policy hooks at the exact program points the historical
// RecoveryMode switch sat at (byte-identical for the legacy strategies,
// golden-pinned by tests/policy_layer_test.cpp).
//
// All host state is flat and per receiver (DESIGN.md §6): the tracker, the
// in-flight and abandoned ids, and the in-order gate live in one Receiver
// record per node, and the per-slot capacity counters are epoch-stamped
// arrays. Containers grow with the open gaps, never with n × window, and a
// receiver with no open gap takes an O(1) path through the gate.
//
// At loss rate 0 nothing is suppressed, repaired, or held back, and the
// engine-visible schedule is bit-identical to running the wrapped protocol
// bare (regression-tested).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/net/topology.hpp"
#include "src/policy/recovery.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/protocol.hpp"

namespace streamcast::loss {

using sim::NodeKey;
using sim::PacketId;
using sim::Slot;
using sim::Tx;

/// The strategy's knobs (policy::RecoveryPolicyOptions, handed to the
/// policy as they are) plus the strategy itself.
struct RecoveryOptions : policy::RecoveryPolicyOptions {
  /// Legacy strategy selector, honored when `policy` is empty (the
  /// registry maps it via policy::recovery_policy_name).
  policy::RecoveryMode mode = policy::RecoveryMode::kNack;
  /// Recovery policy registry entry ("none", "nack", "xor-parity",
  /// "streaming-code"); empty selects by `mode`.
  std::string policy{};
};

/// Per-node expected-vs-delivered sequence state: the gap-free prefix
/// [0, next) plus a sliding bitmap of the packets received ahead of it.
/// The bitmap starts at the 64-bit word that holds the prefix and holds
/// words only while some packet sits ahead of a gap, so its size follows
/// the span of the open gaps, not the stream length. Queries never
/// allocate.
class SequenceTracker {
 public:
  /// Records receipt of packet p (idempotent).
  void mark(PacketId p);

  /// Floors the expectation at packet p: ids below p are no longer part of
  /// this node's stream (a churn joiner seated at the live edge is not in
  /// debt for pre-join history). No-op when the prefix already passed p.
  void start_at(PacketId p);

  bool has(PacketId p) const {
    if (p < next_) return true;
    if (p > last_) return false;
    const auto off = static_cast<std::uint64_t>(p - base_);
    return ((words_[off >> 6] >> (off & 63)) & 1U) != 0;
  }

  /// First packet id not yet received: the stream prefix [0, prefix) is
  /// complete and gap-free.
  PacketId gap_free_prefix() const { return next_; }

  /// True when nothing is held beyond the prefix (no open gap).
  bool ahead_empty() const { return last_ < next_; }

  /// Highest packet id held: the newest id received ahead of the prefix,
  /// or prefix - 1 when nothing is ahead of it.
  PacketId highest_held() const { return last_; }

  /// Ascending walk of the ids received ahead of the prefix: the smallest
  /// such id >= `from`, or sim::kNoPacket when there is none.
  PacketId next_ahead(PacketId from) const;

 private:
  /// Swallows held ids contiguous with the prefix, then drops the bitmap
  /// words the prefix has passed (all of them when nothing is ahead).
  void advance();

  PacketId next_ = 0;
  PacketId last_ = -1;  // highest held id; next_ - 1 when nothing is ahead
  PacketId base_ = 0;   // id of bit 0 of words_[0], a multiple of 64
  // lint: allow(hot-path-alloc) — spans the open gaps; capacity is reused
  std::vector<std::uint64_t> words_;
};

class RecoveryProtocol final : public sim::Protocol,
                               public sim::DeliveryObserver,
                               public policy::RecoveryHost {
 public:
  /// `topology` must be the engine's topology (typically a
  /// net::ProvisionedTopology so repairs have capacity to ride on) and must
  /// outlive the protocol, as must `inner`. Register the instance with the
  /// engine as an observer too (engine.add_observer(recovery)) so it sees
  /// drop reports.
  RecoveryProtocol(const net::Topology& topology, sim::Protocol& inner,
                   RecoveryOptions options = {});

  // sim::Protocol (engine-facing)
  // lint: allow(hot-path-alloc) — appends to the engine's slot list
  void transmit(Slot t, std::vector<Tx>& out) override;
  void deliver(Slot t, const Tx& tx) override;

  // sim::DeliveryObserver (drop reports + post-repair stream fan-out)
  void on_deliveries(std::span<const sim::Delivery> arrivals) override;
  void on_drop(const sim::Drop& d) override;

  /// Observers of the post-repair stream: real deliveries, repair
  /// retransmissions, parity arrivals, and synthesized decoded packets.
  /// Metrics that should measure what the application sees attach here, not
  /// to the engine.
  void add_observer(sim::DeliveryObserver& obs) {
    observers_.push_back(&obs);
  }

  /// Seats `node` at the live edge: its stream starts at `live_edge`, so
  /// the recovery layer never backfills pre-join history (churn joiners).
  /// Arrivals the in-order gate held behind a forgiven gap flow on to the
  /// wrapped protocol.
  void seat(NodeKey node, PacketId live_edge);

  /// True iff every node in [from, to] holds the gap-free prefix [0, window).
  bool all_gap_free(NodeKey from, NodeKey to, PacketId window) const;

  /// True iff every window packet at every node in [from, to] has a decided
  /// fate: arrived, or abandoned by the policy (declared unrecoverable).
  /// The drain loop stops on this instead of all_gap_free, so a
  /// delay-bounded policy that gives a gap up ends the run instead of
  /// burning max_drain; the legacy policies never abandon, making the two
  /// predicates — and the drain behavior — identical (byte-pinned).
  bool gaps_resolved(NodeKey from, NodeKey to, PacketId window) const;

  /// True when the active policy has no undecided erasure and no channel
  /// use in flight. Always false for the legacy policies.
  bool recovery_exhausted() const { return policy_->exhausted(); }

  const policy::RecoveryStats& stats() const { return stats_; }

  const RecoveryOptions& options() const { return options_; }

  /// Registry name of the active recovery policy.
  const char* policy_name() const { return policy_->name(); }

  // policy::RecoveryHost
  NodeKey node_count() const override;
  Slot link_latency(NodeKey from, NodeKey to) const override;
  bool holds(NodeKey node, PacketId p) const override;
  bool has_arrived(NodeKey node, PacketId p) const override;
  PacketId gap_free_prefix(NodeKey node) const override;
  bool ahead_empty(NodeKey node) const override;
  PacketId highest_held(NodeKey node) const override;
  PacketId next_ahead(NodeKey node, PacketId from) const override;
  bool in_flight(NodeKey to, PacketId p) const override;
  void set_in_flight(NodeKey to, PacketId p, bool value) override;
  void mark_outstanding(NodeKey to, std::int32_t tag, PacketId p) override;
  void abandon_gap(Slot t, NodeKey to, PacketId p) override;
  // lint: allow(hot-path-alloc) — a view of the receiver's sender list
  const std::vector<NodeKey>& senders_seen(NodeKey to) const override;
  bool send_available(NodeKey from) const override;
  void use_send(NodeKey from) override;
  bool recv_headroom(Slot arrive, NodeKey to) const override;
  void note_planned_arrival(Slot arrive, NodeKey to) override;
  void ingest_decoded(Slot t, const Tx& tx) override;
  policy::RecoveryStats& stats() override { return stats_; }

 private:
  /// One (receiver, tag) substream of the in-order gate: the known-lost
  /// packets deliveries must not overtake, and the arrivals held back
  /// behind them. Invariant: `held` is non-empty only while some gap
  /// precedes its first entry.
  struct Substream {
    std::int32_t tag = 0;
    // lint: allow(hot-path-alloc) — open gaps only, ascending
    std::vector<PacketId> gaps;
    // lint: allow(hot-path-alloc) — arrivals behind an open gap, ascending
    std::vector<Tx> held;
  };

  /// Everything the host keeps for one receiver. Apart from the senders
  /// seen, the lists hold open-gap state only — ids on the wire, gaps given
  /// up, the gaps the gate waits on and the arrivals they hold back — so
  /// they stay empty while the receiver's stream is whole. They are
  /// searched linearly or by bisection.
  struct Receiver {
    SequenceTracker tracker;
    // lint: allow(hot-path-alloc) — grows once per distinct sender
    std::vector<NodeKey> senders_seen;  // first-seen order
    // lint: allow(hot-path-alloc) — packets on the wire, a handful at most
    std::vector<PacketId> in_flight;  // unordered
    // lint: allow(hot-path-alloc) — gaps the policy gave up, ascending
    std::vector<PacketId> abandoned;
    // lint: allow(hot-path-alloc) — one entry per tag that ever had a gap
    std::vector<Substream> gate;
    /// Total gaps over `gate`; zero means every delivery passes straight
    /// through the gate (the common, lossless-slot case).
    std::int64_t open_gaps = 0;
  };

  Receiver& receiver(NodeKey node) {
    return receivers_[static_cast<std::size_t>(node)];
  }
  const Receiver& receiver(NodeKey node) const {
    return receivers_[static_cast<std::size_t>(node)];
  }
  /// The gate substream for `tag`, created on first use.
  static Substream& substream(Receiver& r, std::int32_t tag);
  /// Removes gap p from whichever substream holds it and stores that
  /// substream's tag in `*tag`; false when p is not a registered gap.
  static bool retire_gap(Receiver& r, PacketId p, std::int32_t* tag);

  /// Common data-arrival path for real, repaired, and decoded packets:
  /// tracker update, policy bookkeeping, in-order release into the inner
  /// protocol.
  void ingest_data(Slot t, const Tx& tx);
  void release_in_order(Slot t, Receiver& r, const Tx& tx);
  void flush_held_back(Slot t, Receiver& r, std::int32_t tag);
  /// Index of the (arrival slot, node) counter in the planned-arrival ring;
  /// `arrive` must lie in [now_, now_ + recv_ring_).
  std::size_t recv_cell(Slot arrive, NodeKey to) const;
  /// Re-lays the planned-arrival ring out to cover `span` arrival slots.
  void grow_recv_ring(Slot span);

  const net::Topology& topology_;
  sim::Protocol& inner_;
  RecoveryOptions options_;
  policy::RecoveryStats stats_;
  std::unique_ptr<policy::RecoveryPolicy> policy_;

  std::vector<Receiver> receivers_;  // lint: allow(hot-path-alloc) — per node
  // lint: allow(hot-path-alloc) — observer list, fixed after setup
  std::vector<sim::DeliveryObserver*> observers_;

  // Residual-capacity accounting for repairs/parity, epoch-stamped like the
  // engine's capacity counters (DESIGN.md §8): a stale stamp reads as zero,
  // so no per-slot reset pass runs. Sends are counted per node for the
  // current slot; planned arrivals per node in a ring of arrival slots
  // [now, now + ring) — a repair lands at most one link latency ahead.
  Slot now_ = 0;
  std::vector<Slot> send_epoch_;  // lint: allow(hot-path-alloc) — per node
  std::vector<int> send_used_;    // lint: allow(hot-path-alloc) — per node
  Slot recv_ring_ = 1;            // arrival slots covered, a power of two
  // lint: allow(hot-path-alloc) — ring × nodes, regrown on latency growth
  std::vector<Slot> recv_epoch_;
  std::vector<int> recv_used_;  // lint: allow(hot-path-alloc) — as above
  // lint: allow(hot-path-alloc) — cleared (not freed) every slot
  std::vector<Tx> inner_scratch_;
};

}  // namespace streamcast::loss
