// Badr–Lui–Khisti delay-constrained streaming code (arXiv:1303.4370) as a
// recovery policy over per-link erasure channels.
//
// The BLK construction protects an ordered symbol stream against burst
// erasures: a rate-T/(T+B) code corrects every erasure burst of length
// <= B within a decode delay of T further channel uses, provided the next
// burst starts only after that window (the guard space). This policy
// simulates the code's erasure-correction capability per link without
// materializing codewords:
//
//  * Channel uses — every transmission (data or parity) on a link (u, v)
//    occupies the next channel-use index of that link. The index stream is
//    what the code is defined over; slots only matter for when uses happen.
//  * Parity cadence — each data use earns B credit; a parity use is
//    emitted (on residual capacity) whenever credit reaches T, keeping the
//    long-run parity:data ratio at B:T, i.e. rate T/(T+B).
//  * Decode rule — an erased data use at index i inside the erasure run
//    [s, e] is recoverable iff the run is short (e - s + 1 <= B) and every
//    channel use in (e, i + T] arrived. A second erasure inside that
//    window is a guard-space collision: the interleaved bursts exceed the
//    code's correction capability and the run is unrecoverable. Until the
//    window fills, the decision is pending.
//  * Unrecoverable gaps are *abandoned*: the in-order gate releases what
//    the gap was holding back and the continuity metrics report an
//    undecodable gap — instead of the substream stalling forever, which is
//    exactly what ISSUE's burst-longer-than-T requirement forbids.
//  * Relay forwarding (dense links) — a newest-only forwarder whose own
//    upstream lost a packet skips its id downstream: the id never becomes a
//    channel use there, so no amount of parity can recover it. Hop-by-hop
//    streaming codes assume each relay re-injects what it decodes, so on
//    dense links the policy tracks skipped ids and forwards each one as a
//    regular (parity-protected) data use once the relay holds it. When the
//    upstream hop declared the id unrecoverable, the abandonment cascades
//    downstream instead.
//  * Drain — while undecided erased uses wait on index progression, the
//    policy keeps the link's index stream moving with extra parity uses,
//    so decode windows fill even after the data schedule went quiet.
//    exhausted() turns true once every erased use is decided and nothing
//    is in flight, letting the pipeline stop draining early.
//
// Unlike NACK there is no feedback channel, and unlike XOR parity the
// correction is burst-capable with a hard delay bound — the throughput/
// smoothness frontier bench (bench/throughput_smoothness) compares the
// three on Gilbert–Elliott burst sweeps.
//
// streamcast: hot-path (lint: hot-path-alloc applies to this file)
//
// State is flat (DESIGN.md §15): links sit in a LinkTable walked in (from,
// to) order, and each link addresses its channel uses by index in a vector
// that drops the final uses no decode window or erasure run can reach any
// more, so a link holds its open decode windows, not its whole history.
#pragma once

#include <cstdint>
#include <vector>

#include "src/policy/link_table.hpp"
#include "src/policy/recovery.hpp"

namespace streamcast::policy {

class StreamingCodePolicy final : public RecoveryPolicy {
 public:
  explicit StreamingCodePolicy(const RecoveryPolicyOptions& options);

  const char* name() const override { return "streaming-code"; }

  void bind(RecoveryHost& host) override;
  void on_data_emitted(RecoveryHost& host, Slot t, const Tx& tx) override;
  // lint: allow(hot-path-alloc) — appends to the slot's output list
  void emit(RecoveryHost& host, Slot t, std::vector<Tx>& out) override;
  void on_data_arrival(RecoveryHost& host, Slot t, const Tx& tx) override;
  void on_control_arrival(RecoveryHost& host, Slot t, const Tx& tx) override;
  void on_data_drop(RecoveryHost& host, const sim::Drop& d) override;
  void on_control_drop(RecoveryHost& host, const sim::Drop& d) override;
  bool exhausted() const override {
    return undecided_ == 0 && pending_uses_ == 0;
  }

 private:
  using UseIndex = std::int64_t;

  enum class UseState : std::uint8_t { kPending, kArrived, kErased };

  struct Use {
    Tx tx{};
    bool parity = false;
    UseState state = UseState::kPending;
    /// An erased data use that was already decoded, repaired by a later
    /// transmission of the same packet, or abandoned. The channel state
    /// (kErased) is kept — erasure runs are a channel property — but the
    /// use needs no further decision.
    bool decided = false;
  };

  /// A channel use on the wire: the data packet id or parity control id it
  /// carries, and its index (one per id at a time, enforced by the host's
  /// in-flight suppression).
  struct InFlight {
    PacketId id = 0;
    UseIndex index = 0;
  };

  /// An id the dense schedule skipped past, with the substream tag of the
  /// skipping transmission.
  struct Skipped {
    PacketId id = 0;
    std::int32_t tag = 0;
  };

  struct Link {
    UseIndex next_index = 0;
    /// Parity cadence accumulator: +B per data use, -T per parity use.
    std::int64_t credit = 0;
    /// Channel uses [first, next_index), by index - first. Uses below
    /// `first` are final and outside every decode window and erasure run
    /// still to be examined; reading one as absent stops an erasure-run
    /// walk exactly where the non-erased use before the run would.
    UseIndex first = 0;
    // lint: allow(hot-path-alloc) — spans the open decode windows
    std::vector<Use> uses;
    // lint: allow(hot-path-alloc) — data uses on the wire
    std::vector<InFlight> pending_data;
    // lint: allow(hot-path-alloc) — parity uses on the wire
    std::vector<InFlight> pending_parity;
    /// Erased data uses not yet decided, ascending.
    // lint: allow(hot-path-alloc) — undecided erasures only
    std::vector<UseIndex> open;
    /// Newest data id emitted on this link (dense-link skip detection).
    PacketId last_data = -1;
    /// Skipped ids, ascending; forwarded once the sender holds them.
    // lint: allow(hot-path-alloc) — ids still owed to the receiver
    std::vector<Skipped> skipped;
  };

  /// The use at `idx`, or nullptr when it was never recorded or pruned.
  static Use* find_use(Link& link, UseIndex idx);
  static Use& use_at(Link& link, UseIndex idx) {
    return link.uses[static_cast<std::size_t>(idx - link.first)];
  }
  bool lost(NodeKey node, PacketId id) const;
  void mark_lost(NodeKey node, PacketId id);

  void record_use(Link& link, const Tx& tx, bool parity);
  bool emit_parity_use(RecoveryHost& host, Slot t, NodeKey from, NodeKey to,
                       Link& link,
                       // lint: allow(hot-path-alloc) — the slot's output list
                       std::vector<Tx>& out);
  void detect_skips(RecoveryHost& host, Link& link, const Tx& tx);
  void forward_skipped(RecoveryHost& host, Slot t, NodeKey from, NodeKey to,
                       Link& link,
                       // lint: allow(hot-path-alloc) — the slot's output list
                       std::vector<Tx>& out);
  /// Marks the use carrying `tx.packet` with the final channel outcome and
  /// re-evaluates the link's open erasures.
  void finalize_data_use(RecoveryHost& host, Slot t, const Tx& tx,
                         UseState state);
  /// Takes the pending parity use carrying control id `id` off the wire;
  /// false when the link has no such use.
  bool finalize_parity_use(Link& link, PacketId id, UseIndex* idx);
  void note_erasure_run(RecoveryHost& host, Link& link, UseIndex idx);
  void settle(RecoveryHost& host, Slot t, Link& link);
  void decide(Link& link, UseIndex idx);
  /// Drops the uses no later decision can read.
  static void prune(Link& link);

  LinkTable<Link> code_links_;
  /// Per node, ascending: packets declared unrecoverable there — consulted
  /// when a downstream link waits on that node to forward the packet, so
  /// the abandonment cascades instead of the wait lasting forever.
  // lint: allow(hot-path-alloc) — per node, grows with abandoned gaps
  std::vector<std::vector<PacketId>> lost_;
  PacketId next_code_id_ = sim::kControlIdBase;
  /// Open erased data uses across all links.
  std::int64_t undecided_ = 0;
  /// Channel uses emitted but not yet arrived/erased, across all links.
  std::int64_t pending_uses_ = 0;
  Slot decode_delay_;   // T
  PacketId max_burst_;  // B
};

}  // namespace streamcast::policy
