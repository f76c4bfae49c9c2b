// NACK recovery policy: gap-driven retransmission after a modeled NACK
// round trip, extracted verbatim from the historical RecoveryMode::kNack
// arm of loss::RecoveryProtocol (byte-identical, golden-pinned).
//
// Every detected gap — an engine drop report, a suppressed causal send, a
// skipped id on a dense link, or an aged gap on a demand-driven scheme —
// schedules a retransmission from a node that holds the packet, after the
// reverse-link trip, riding only on residual send/receive capacity. Lost
// repairs are re-NACKed, so every gap eventually closes (exhausted() is
// therefore always false).
//
// streamcast: hot-path (lint: hot-path-alloc applies to this file)
//
// State is flat and per receiver (DESIGN.md §15): each receiver keeps its
// pending repairs and its aged-gap first-seen slots as short vectors sorted
// by packet id, and a sorted list of receivers with pending repairs gives
// the emit pass its (receiver, packet) order without visiting idle
// receivers.
#pragma once

#include <cstdint>
#include <vector>

#include "src/policy/link_table.hpp"
#include "src/policy/recovery.hpp"

namespace streamcast::policy {

class NackPolicy final : public RecoveryPolicy {
 public:
  using RecoveryPolicy::RecoveryPolicy;

  const char* name() const override { return "nack"; }

  void bind(RecoveryHost& host) override;
  void on_suppressed_causal(RecoveryHost& host, Slot t,
                            const Tx& tx) override;
  void on_suppressed_redundant(RecoveryHost& host, Slot t,
                               const Tx& tx) override;
  void on_data_emitted(RecoveryHost& host, Slot t, const Tx& tx) override;
  // lint: allow(hot-path-alloc) — appends to the slot's output list
  void emit(RecoveryHost& host, Slot t, std::vector<Tx>& out) override;
  void on_data_ingested(RecoveryHost& host, Slot t, const Tx& tx) override;
  void on_data_drop(RecoveryHost& host, const sim::Drop& d) override;

 private:
  struct Repair {
    PacketId packet = 0;
    NodeKey sender = 0;
    std::int32_t tag = 0;
    Slot due = 0;
    bool in_flight = false;
  };

  /// Aged-gap sweep: slot at which an open gap was first observed.
  struct GapSeen {
    PacketId packet = 0;
    Slot slot = 0;
  };

  struct Receiver {
    // lint: allow(hot-path-alloc) — open repairs, ascending packet
    std::vector<Repair> pending;
    // lint: allow(hot-path-alloc) — swept gaps, ascending packet
    std::vector<GapSeen> gap_seen;
    bool listed = false;  // present in active_
  };

  Slot nack_due(const RecoveryHost& host, Slot detect_slot, NodeKey from,
                NodeKey to) const;
  bool pending(NodeKey to, PacketId p) const;
  void schedule_repair(RecoveryHost& host, NodeKey to, PacketId p,
                       NodeKey sender, std::int32_t tag, Slot due);
  void detect_dense_skips(RecoveryHost& host, Slot t, const Tx& tx);
  void sweep_aged_gaps(RecoveryHost& host, Slot t);
  /// The first node that holds the repaired packet and has residual
  /// capacity to send it to `to` this slot, or sim::kNoNode.
  NodeKey repair_source(const RecoveryHost& host, Slot t, NodeKey to,
                        const Repair& repair) const;
  void bump_last_emitted(const Tx& tx);

  // lint: allow(hot-path-alloc) — per node, sized once in bind()
  std::vector<Receiver> receivers_;
  /// Receivers with pending repairs, ascending; emptied ones drop out at
  /// the next emit pass.
  // lint: allow(hot-path-alloc) — at most one entry per node
  std::vector<NodeKey> active_;
  /// Dense-link skip detection: newest inner-emitted id per (from, to).
  LinkTable<PacketId> last_emitted_;
};

}  // namespace streamcast::policy
