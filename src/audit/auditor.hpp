// Always-on simulation sanitizer: machine-checks the paper's invariants on
// the engine's observer surface, every slot, for every scheme.
//
// The engine already *enforces* capacity at the moment a transmission is
// queued; the auditor is deliberately redundant — it recomputes every
// invariant from nothing but the observer event stream (on_deliveries /
// on_drop) and the topology oracle, so a bug in the engine's own accounting,
// a protocol that mutates state mid-stream (churn, loss recovery), or a
// future parallel engine cannot silently void the paper's claims. Audit
// tests run the engine with EngineOptions::enforce = false to prove the
// auditor catches injected violations on its own.
//
// Checked continuously (slot granularity, detected at the first offending
// event):
//   * per-node send capacity   — deliveries and drops charged to their send
//     slot; super nodes get D / d, ProvisionedTopology headroom included
//   * per-node receive capacity — the paper's collision-freedom (ordinary
//     nodes receive <= 1 packet per slot)
//   * per-link schedule collisions — the same (from, to, packet) queued
//     twice in one slot
//   * link-latency pacing      — received - sent + 1 must equal the
//     topology's latency (T_c across clusters, T_i inside)
//   * duplicate-free delivery; the gap-free delivered prefix is monotone by
//     construction (an arrival is never erased), so nothing checks it
//
// Checked at finalize(), over the measurement window:
//   * playback delay against the scheme's claimed bound (Thm 2 / Prop 1-2)
//   * max buffer occupancy against the claimed bound; lossy runs add gap-
//     backlog slack (recovery retransmissions both delay playback and pile
//     up arrivals behind the open gap), reliable runs check the paper's
//     bound exactly
//   * window completeness (reliable runs only)
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/audit/report.hpp"
#include "src/net/topology.hpp"
#include "src/sim/engine.hpp"

namespace streamcast::audit {

/// Violations an AuditReport stores verbatim; the rest are counted as
/// `suppressed`.
inline constexpr std::size_t kMaxViolations = 64;

struct AuditOptions {
  /// Packets [0, window) measured for prefix/delay/buffer checks. 0 turns
  /// the window accounting off (capacity checks still run).
  PacketId window = 0;
  /// Claimed worst-case playback delay; every audited node's a(i) must stay
  /// at or under it. -1 skips the check (lossy runs, where repairs may
  /// legitimately exceed the deterministic bound).
  Slot delay_bound = -1;
  /// Claimed max buffer occupancy; -1 skips the check.
  std::int64_t buffer_bound = -1;
  /// Lossy-run slack: allow one extra buffered packet per slot of the
  /// node's own playback delay. While a gap waits for its repair, the paced
  /// stream keeps arriving and piles up behind it — and every piled packet
  /// pushed the playback delay out by one slot, so occupancy above the
  /// reliable bound is covered by a(i) itself. Off (reliable runs), the
  /// paper's bound is checked exactly.
  bool gap_backlog_slack = false;
  /// Require every audited node to complete the window by finalize().
  /// Reliable schemes must; lossy runs may time out legitimately.
  bool require_complete = false;
  /// Nodes whose window/delay/buffer to audit. Empty = every node except
  /// key 0 (the source). Capacity checks always cover all nodes.
  std::vector<NodeKey> audited_nodes{};
};

class InvariantAuditor final : public sim::DeliveryObserver {
 public:
  InvariantAuditor(const net::Topology& topology, AuditOptions options = {});

  void on_deliveries(std::span<const sim::Delivery> arrivals) override;
  void on_drop(const sim::Drop& d) override;

  /// Runs the end-of-run checks (delay/buffer/completeness) and returns the
  /// full report. Idempotent: the window checks run once.
  const AuditReport& finalize();

  /// finalize(), then throw sim::ProtocolViolation carrying the report text
  /// if any invariant was violated.
  void require_clean();

  /// The report as accumulated so far (without the finalize()-only checks).
  const AuditReport& report() const { return report_; }

 private:
  void record(Violation v);
  /// Charges one transmission to (from, slot); shared by deliveries and
  /// drops — an erased packet still consumed its sender's capacity.
  void charge_send(Slot sent, const sim::Tx& tx);
  void observe(const sim::Delivery& d);
  void observe_window(const sim::Delivery& d);
  void advance(Slot processing_slot);
  std::size_t window_index(NodeKey node, PacketId packet) const;

  const net::Topology& topology_;
  AuditOptions options_;
  AuditReport report_;
  bool finalized_ = false;

  Slot cur_ = -1;             // engine slot currently being observed
  Slot max_latency_seen_ = 1;

  // Per-slot counters, pruned as slots complete. The outer std::map keeps
  // pruning and any reporting deterministic; the inner hash containers are
  // only ever indexed, never iterated.
  std::map<Slot, std::unordered_map<NodeKey, int>> sends_;
  std::map<Slot, std::unordered_map<NodeKey, int>> recvs_;
  std::map<Slot, std::set<std::tuple<NodeKey, NodeKey, PacketId>>> links_;

  std::unordered_set<std::uint64_t> delivered_;  // (node, packet) keys

  // Window accounting (empty when options_.window == 0).
  std::vector<Slot> arrival_;      // [node * window + packet]
  std::vector<PacketId> prefix_;   // gap-free delivered prefix per node
};

}  // namespace streamcast::audit
