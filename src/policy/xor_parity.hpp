// XOR-parity FEC policy: per link, one parity packet per fec_window data
// packets, extracted verbatim from the historical RecoveryMode::kFec arm of
// loss::RecoveryProtocol (byte-identical, golden-pinned).
//
// A single erasure inside a window decodes at the receiver without a round
// trip (XOR of the parity with the w-1 received packets). Parity ids live
// in the control id space (sim::kControlIdBase) and are never part of the
// stream; a lost parity packet simply leaves its window unprotected.
//
// streamcast: hot-path (lint: hot-path-alloc applies to this file)
//
// State is flat (DESIGN.md §15). Windows live in a slot pool whose data
// vectors are recycled through the per-link accumulators. A window whose
// parity arrived but could not decode stays *unresolved* at its receiver
// with a count of its data packets still missing there; the receiver keeps
// an index from each missing packet id to the windows waiting on it. An
// arrival updates only the counts of the windows waiting on it, a decode
// pass reads counts instead of each window's packets, and a receiver with
// no window down to one missing packet skips the pass outright.
#pragma once

#include <cstdint>
#include <vector>

#include "src/policy/link_table.hpp"
#include "src/policy/recovery.hpp"

namespace streamcast::policy {

class XorParityPolicy final : public RecoveryPolicy {
 public:
  explicit XorParityPolicy(const RecoveryPolicyOptions& options)
      : RecoveryPolicy(options) {}

  const char* name() const override { return "xor-parity"; }

  void bind(RecoveryHost& host) override;
  void on_data_emitted(RecoveryHost& host, Slot t, const Tx& tx) override;
  // lint: allow(hot-path-alloc) — appends to the slot's output list
  void emit(RecoveryHost& host, Slot t, std::vector<Tx>& out) override;
  void on_data_ingested(RecoveryHost& host, Slot t, const Tx& tx) override;
  void on_data_arrival(RecoveryHost& host, Slot t, const Tx& tx) override;
  void on_control_arrival(RecoveryHost& host, Slot t, const Tx& tx) override;
  void on_control_drop(RecoveryHost& host, const sim::Drop& d) override;
  void on_seat(RecoveryHost& host, NodeKey node) override;

 private:
  struct ParityWindow {
    PacketId id = 0;  // the parity packet's control id
    NodeKey from = 0;
    NodeKey to = 0;
    // lint: allow(hot-path-alloc) — fec_window entries, recycled
    std::vector<Tx> data;  // the window's data transmissions, in order
    /// Unresolved windows only: data entries not yet arrived at `to`.
    int missing = 0;
  };

  /// One entry per (missing packet, unresolved window) at a receiver.
  struct Waiting {
    PacketId packet = 0;
    int window = 0;  // pool slot
  };

  struct Receiver {
    // lint: allow(hot-path-alloc) — pool slots, in parity-arrival order
    std::vector<int> unresolved;
    // lint: allow(hot-path-alloc) — ascending packet
    std::vector<Waiting> waiting;
    /// Unresolved windows with at most one missing packet: the only ones
    /// a decode pass can resolve.
    int decodable = 0;
  };

  int new_window();
  void free_window(int slot);
  /// Takes the window whose parity (control id `id`) is on the wire off
  /// the wire; false when there is none.
  bool take_in_air(PacketId id, int* slot);
  /// First decode attempt when the window's parity arrives; a window that
  /// cannot decode yet becomes unresolved at its receiver.
  void on_parity(RecoveryHost& host, Slot t, int slot);
  /// Decode attempt for an unresolved window; true once it is resolved.
  bool try_resolve(RecoveryHost& host, Slot t, int slot);
  void recheck_unresolved(RecoveryHost& host, Slot t, NodeKey node);
  /// Counts the arrival of `packet` at `node` against the windows waiting
  /// on it.
  void arrived(Receiver& r, PacketId packet);

  /// Per link: the data transmissions of its next, still open window.
  // lint: allow(hot-path-alloc) — fec_window entries per link, recycled
  LinkTable<std::vector<Tx>> fec_acc_;
  // lint: allow(hot-path-alloc) — live windows, slots recycled
  std::vector<ParityWindow> windows_;
  // lint: allow(hot-path-alloc) — pool free list, one entry per slot
  std::vector<int> free_;
  // lint: allow(hot-path-alloc) — windows awaiting parity capacity
  std::vector<int> queue_;
  // lint: allow(hot-path-alloc) — windows whose parity is on the wire
  std::vector<int> in_air_;
  // lint: allow(hot-path-alloc) — per node, sized once in bind()
  std::vector<Receiver> receivers_;
  PacketId next_parity_id_ = sim::kControlIdBase;
};

}  // namespace streamcast::policy
