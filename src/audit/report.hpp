// Structured audit findings: what invariant broke, where, and by how much.
//
// Every violation carries the slot it happened in, the node it happened at,
// and the expected-vs-actual values of the checked quantity, so a failing
// audited run pinpoints the broken bound rather than just aborting. Reports
// are deterministic: violations appear in event order, never in hash order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/packet.hpp"

namespace streamcast::audit {

using sim::NodeKey;
using sim::PacketId;
using sim::Slot;

/// The machine-checked invariants, one per paper claim (DESIGN.md §7).
enum class ViolationKind {
  /// A node initiated more transmissions in one slot than its capacity
  /// (1 for ordinary nodes, D / d for super nodes, plus any provisioned
  /// recovery headroom).
  kSendCapacity,
  /// A node completed more receptions in one slot than its capacity — the
  /// paper's collision-freedom: ordinary nodes receive at most one packet
  /// per slot (appendix congruence property, Thm 2 machinery).
  kRecvCapacity,
  /// The same (from, to, packet) transmission was queued twice in one slot:
  /// a schedule collision on a single link.
  kScheduleCollision,
  /// A delivery's in-flight time disagrees with the topology's latency for
  /// the link — e.g. an inter-cluster packet that did not take T_c slots
  /// (the super-tree pacing of §2.1).
  kLatencyMismatch,
  /// The same stream packet was delivered twice to the same node. All of
  /// the paper's schemes are duplicate-free; churn runs relax this check.
  kDuplicateDelivery,
  /// A receiver's playback delay exceeded the scheme's claimed bound
  /// (Theorem 2's h*d for the multi-tree, Propositions 1-2 / Theorem 4
  /// envelopes for the hypercube, closed forms for the baselines).
  kDelayBound,
  /// A receiver's maximum buffer occupancy exceeded the scheme's claimed
  /// bound, after slack for recovery-induced extra playback delay.
  kBufferBound,
  /// A receiver never completed the measurement window (reliable runs
  /// only; lossy runs may legitimately time out and account for this in
  /// LossSummary::incomplete_nodes instead).
  kIncompleteWindow,
};

const char* violation_kind_name(ViolationKind kind);

struct Violation {
  ViolationKind kind;
  Slot slot = 0;
  NodeKey node = sim::kNoNode;
  /// The bound the invariant claims (capacity, latency, delay, ...).
  std::int64_t expected = 0;
  /// The value the run actually produced.
  std::int64_t actual = 0;
  /// Human-oriented context: the offending link, packet, tree tag, ...
  std::string detail;

  std::string to_string() const;
};

struct AuditReport {
  std::int64_t slots_audited = 0;
  std::int64_t deliveries_audited = 0;
  std::int64_t drops_audited = 0;
  /// Violations beyond kMaxViolations, counted but not stored.
  std::int64_t suppressed = 0;
  std::vector<Violation> violations;

  bool ok() const { return violations.empty() && suppressed == 0; }
  std::string to_string() const;
};

}  // namespace streamcast::audit
