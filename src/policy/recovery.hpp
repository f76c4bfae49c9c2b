// Recovery-policy strategy interface (DESIGN.md §15).
//
// loss::RecoveryProtocol used to be one monolithic class switching on a
// RecoveryMode enum. The generic machinery — sequence tracking, causality
// and redundancy suppression, in-order hand-off, residual-capacity
// accounting — is mode-independent; only the *repair strategy* differed.
// This header splits that strategy out: RecoveryProtocol stays the host
// (it owns trackers, the in-order gate, and capacity bookkeeping, exposed
// through the RecoveryHost interface below) and delegates every
// strategy-specific decision to a RecoveryPolicy looked up in the policy
// registry (policy/registry.hpp):
//
//   none           no repair; gaps stay open and are accounted.
//   nack           gap-driven retransmission after a modeled NACK trip.
//   xor-parity     one XOR parity packet per fec_window data packets.
//   streaming-code Badr–Lui–Khisti delay-constrained burst-erasure code
//                  (arXiv:1303.4370): rate T/(T+B) per link, corrects any
//                  erasure burst of length <= B within decode delay T.
//
// The extraction is byte-invisible for the legacy strategies: every hook
// below fires at exactly the program point the old mode switch sat at, and
// the golden parity suite (tests/policy_layer_test.cpp) pins the serialized
// reports to pre-extraction captures.
//
// This module sits just above simbase in the layer DAG: a policy sees the
// world only through RecoveryHost, never through net:: or the engine.
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/event.hpp"
#include "src/sim/packet.hpp"

namespace streamcast::policy {

using sim::NodeKey;
using sim::PacketId;
using sim::Slot;
using sim::Tx;

/// Legacy strategy selector, kept for the pre-registry configuration
/// surface (LossConfig::recovery); the registry maps it to policy names via
/// recovery_policy_name(). New code should select policies by name.
enum class RecoveryMode { kNone, kNack, kFec };

/// Historical labels ("none" / "nack" / "fec"), used by bench output.
const char* recovery_mode_name(RecoveryMode m);

/// Registry entry name for a legacy mode ("none" / "nack" / "xor-parity").
const char* recovery_policy_name(RecoveryMode m);

/// Badr–Lui–Khisti streaming-code parameters. The code spends one parity
/// channel use per T/B data uses (rate T/(T+B)) and corrects any erasure
/// burst of length <= B on a link within T further channel uses, provided
/// the next burst starts after that decode window (the guard space).
struct StreamingCodeOptions {
  /// Decode delay T, in channel uses of the link.
  Slot decode_delay = 16;
  /// Maximal correctable burst length B, in channel uses.
  PacketId burst = 4;
};

/// The stream source: every scheme keys it 0 (sim/packet.hpp), and it
/// implicitly holds every packet.
inline constexpr NodeKey kStreamSource = 0;

/// Strategy knobs; loss::RecoveryOptions extends them with the strategy's
/// name.
struct RecoveryPolicyOptions {
  /// Data packets per XOR parity packet (xor-parity).
  int fec_window = 8;
  /// Sender-side skip detection for newest-only forwarders (chain, single
  /// tree): every packet id flows over every link, so an id jump on a link
  /// is a gap the receiver will never otherwise see. Must stay off for
  /// schemes whose per-link id streams are strided (multi-tree) or demand-
  /// driven (hypercube) — there an id jump is normal (nack,
  /// streaming-code).
  bool dense_links = false;
  /// Age (in slots) after which a still-open receive gap is NACKed from the
  /// source even though no transmission of it was ever seen failing. Needed
  /// for demand-driven schemes (hypercube) where a packet that missed its
  /// consumption deadline is simply never offered again; must exceed the
  /// scheme's worst inter-arrival skew so it cannot fire on a lossless run.
  /// Sweep repairs carry `sweep_tag`. -1 disables the sweep (nack).
  Slot gap_timeout = -1;
  /// Substream tag carried by aged-gap sweep repairs. The default (0)
  /// gates the receiver's tag-0 substream behind the repair — the right
  /// call for schemes whose deliveries all carry tag 0. A scheme whose
  /// tags partition the stream (dyntree trees) should pass a tag no live
  /// delivery uses, so backfill never holds the live substreams back.
  std::int32_t sweep_tag = 0;
  /// Playback relevance horizon for the sweep: a gap whose id is more than
  /// this many slots behind the current slot is abandoned instead of
  /// repaired — the repair could only land after the packet's play
  /// deadline, so it would be pure congestion. -1 repairs regardless of
  /// age (the historical behavior).
  Slot repair_horizon = -1;
  /// Streaming-code parameters (streaming-code).
  StreamingCodeOptions code{};
};

struct RecoveryStats {
  std::int64_t data_transmissions = 0;
  std::int64_t retransmissions = 0;
  std::int64_t parity_transmissions = 0;
  std::int64_t fec_decodes = 0;
  /// Sends suppressed because the sender did not hold the packet.
  std::int64_t suppressed_causal = 0;
  /// Sends suppressed because the receiver already held the packet (or it
  /// was already in flight).
  std::int64_t suppressed_redundant = 0;
  /// Repair requests issued (including re-NACKs of lost repairs).
  std::int64_t nacks = 0;
  /// Streaming-code channel health: the longest per-link erasure run seen,
  /// runs abandoned because a second burst fell inside the decode window
  /// (guard-space collisions), and data uses declared unrecoverable. Zero
  /// under every other policy.
  std::int64_t max_erasure_run = 0;
  std::int64_t guard_collisions = 0;
  std::int64_t unrecoverable = 0;

  /// Repair traffic per useful data transmission:
  /// (retransmissions + parity) / data.
  double redundancy_overhead() const;
};

/// The host-side services a recovery policy may use. Implemented by
/// loss::RecoveryProtocol; a policy never touches the topology or the
/// engine directly, so the module depends only on simbase.
class RecoveryHost {
 public:
  virtual ~RecoveryHost() = default;

  virtual NodeKey node_count() const = 0;
  virtual Slot link_latency(NodeKey from, NodeKey to) const = 0;

  /// True when `node` holds packet p — source-aware (the stream source
  /// implicitly holds everything).
  virtual bool holds(NodeKey node, PacketId p) const = 0;
  /// True when packet p actually arrived at `node` (not source-aware).
  virtual bool has_arrived(NodeKey node, PacketId p) const = 0;
  /// First packet id `node` has not yet received.
  virtual PacketId gap_free_prefix(NodeKey node) const = 0;
  /// True when `node` holds nothing beyond its gap-free prefix (no open
  /// gap). The queries below never allocate.
  virtual bool ahead_empty(NodeKey node) const = 0;
  /// Highest packet id `node` holds: its newest id received ahead of the
  /// prefix, or prefix - 1 when nothing is ahead of it.
  virtual PacketId highest_held(NodeKey node) const = 0;
  /// Ascending walk of the ids `node` received ahead of its prefix (the
  /// current gaps' far side): the smallest such id >= `from`, or
  /// sim::kNoPacket when there is none.
  virtual PacketId next_ahead(NodeKey node, PacketId from) const = 0;

  virtual bool in_flight(NodeKey to, PacketId p) const = 0;
  virtual void set_in_flight(NodeKey to, PacketId p, bool value) = 0;

  /// Registers packet p as a known gap in the in-order gate of the
  /// (to, tag) substream; later arrivals overtaking it are held back.
  virtual void mark_outstanding(NodeKey to, std::int32_t tag, PacketId p) = 0;
  /// Gives up on a gap: retires p from the in-order gate and flushes
  /// whatever it was holding back, without delivering p. The continuity
  /// metrics then report the packet as an undecodable gap instead of the
  /// substream stalling behind it forever.
  virtual void abandon_gap(Slot t, NodeKey to, PacketId p) = 0;

  /// Nodes that have previously delivered to `to`, in first-seen order.
  virtual const std::vector<NodeKey>& senders_seen(NodeKey to) const = 0;

  // Residual-capacity accounting for repair/parity traffic, valid during
  // the emit() hook of the current slot.
  virtual bool send_available(NodeKey from) const = 0;
  virtual void use_send(NodeKey from) = 0;
  virtual bool recv_headroom(Slot arrive, NodeKey to) const = 0;
  virtual void note_planned_arrival(Slot arrive, NodeKey to) = 0;

  /// Feeds a policy-decoded packet into the host exactly as if it had
  /// arrived: synthesizes the observer delivery and runs the common
  /// data-arrival path (tracker, gate, in-order release).
  virtual void ingest_decoded(Slot t, const Tx& tx) = 0;

  virtual RecoveryStats& stats() = 0;
};

/// One repair strategy. Every hook fires at a fixed program point of the
/// host (documented per hook); default implementations reproduce the
/// strategy-independent behavior, so a policy only overrides what it acts
/// on. Hooks receive the host by reference — policies hold no host pointer
/// and stay movable/testable in isolation.
class RecoveryPolicy {
 public:
  explicit RecoveryPolicy(const RecoveryPolicyOptions& options)
      : options_(options) {}
  virtual ~RecoveryPolicy() = default;

  virtual const char* name() const = 0;

  /// Called once after construction, before the first slot (per-node
  /// sizing).
  virtual void bind(RecoveryHost& /*host*/) {}

  /// A send was suppressed because the sender does not hold the packet.
  /// Default: register the downstream gap with the in-order gate.
  virtual void on_suppressed_causal(RecoveryHost& host, Slot t, const Tx& tx);
  /// A send was suppressed because the receiver already holds the packet
  /// (or it is in flight).
  virtual void on_suppressed_redundant(RecoveryHost& /*host*/, Slot /*t*/,
                                       const Tx& /*tx*/) {}
  /// A data transmission is about to be emitted to the engine.
  virtual void on_data_emitted(RecoveryHost& /*host*/, Slot /*t*/,
                               const Tx& /*tx*/) {}
  /// End of the slot's transmit pass: the policy may append repair/parity
  /// traffic, bounded by the host's residual capacity accounting.
  virtual void emit(RecoveryHost& /*host*/, Slot /*t*/,
                    std::vector<Tx>& /*out*/) {}

  /// A data packet is being ingested (real, repaired, or decoded); fires
  /// after the in-flight clear, before the in-order gate retires the gap.
  virtual void on_data_ingested(RecoveryHost& /*host*/, Slot /*t*/,
                                const Tx& /*tx*/) {}
  /// A data packet finished the engine-delivery path at its receiver.
  virtual void on_data_arrival(RecoveryHost& /*host*/, Slot /*t*/,
                               const Tx& /*tx*/) {}
  /// A control-id packet (parity) arrived.
  virtual void on_control_arrival(RecoveryHost& /*host*/, Slot /*t*/,
                                  const Tx& /*tx*/) {}

  /// The loss model erased a data transmission; fires after the host's
  /// generic bookkeeping (in-flight clear, gate registration, observer
  /// fan-out).
  virtual void on_data_drop(RecoveryHost& /*host*/, const sim::Drop& /*d*/) {}
  /// The loss model erased a control-id (parity) transmission.
  virtual void on_control_drop(RecoveryHost& /*host*/,
                               const sim::Drop& /*d*/) {}

  /// The host seated `node` at a live edge: ids below its new gap-free
  /// prefix count as held from now on, without an ingest per id.
  virtual void on_seat(RecoveryHost& /*host*/, NodeKey /*node*/) {}

  /// True when the policy can no longer close any open gap (every erased
  /// use is decoded or abandoned and nothing is in flight). The drain loop
  /// stops early instead of burning max_drain. Policies with unbounded
  /// recovery (nack re-NACKs forever) return false.
  virtual bool exhausted() const { return false; }

 protected:
  const RecoveryPolicyOptions& options() const { return options_; }

 private:
  RecoveryPolicyOptions options_;
};

}  // namespace streamcast::policy
