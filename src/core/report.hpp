// QoS report of a simulated session: the quantities Table 1 of the paper
// compares (playback delay, buffer space, number of neighbors).
#pragma once

#include <iosfwd>
#include <string>

#include "src/sim/packet.hpp"

namespace streamcast::core {

struct QosReport {
  std::string scheme;
  sim::NodeKey n = 0;
  int d = 0;
  sim::Slot worst_delay = 0;
  double average_delay = 0;
  std::size_t max_buffer = 0;
  double average_buffer = 0;
  std::size_t max_neighbors = 0;
  double average_neighbors = 0;
  std::int64_t transmissions = 0;
  /// Slots the engine simulated to produce this report (horizon + drain);
  /// the perf harness derives slots/sec from it.
  sim::Slot slots_simulated = 0;
  /// Lossy-run health (zero on reliable links): transmissions erased by the
  /// link loss model, and NACK repair retransmissions.
  std::int64_t drops = 0;
  std::int64_t retransmissions = 0;

  /// One-line rendering used by examples.
  std::string summary() const;
};

std::ostream& operator<<(std::ostream& os, const QosReport& r);

/// Loss-subsystem outcome of a lossy run, alongside the usual QosReport.
struct LossSummary {
  std::int64_t drops = 0;
  std::int64_t retransmissions = 0;
  std::int64_t parity_transmissions = 0;
  std::int64_t fec_decodes = 0;
  std::int64_t suppressed = 0;
  std::int64_t nacks = 0;
  /// (retransmissions + parity) / data transmissions.
  double redundancy_overhead = 0;
  /// Every receiver holds the gap-free prefix [0, window) at the end.
  bool all_gap_free = false;
  /// Worst per-receiver stall count / stalled slots when playback starts at
  /// LossConfig::playback_start (continuity metrics).
  int stalls = 0;
  sim::Slot stall_slots = 0;
  /// Window packets (summed over receivers) never delivered by the horizon.
  sim::PacketId undecodable = 0;
  /// Extra slots simulated past the reliable horizon to let repairs land.
  sim::Slot drain_slots = 0;
  /// Receivers whose measurement window stayed incomplete (excluded from
  /// the delay/buffer aggregates).
  sim::NodeKey incomplete_nodes = 0;
  /// Streaming-code channel health (zero under other policies): longest
  /// per-link erasure run, guard-space collisions, and data uses declared
  /// unrecoverable. Not part of serialize() — the golden byte contract
  /// predates the policy layer.
  std::int64_t max_erasure_run = 0;
  std::int64_t guard_collisions = 0;
  std::int64_t unrecoverable = 0;
};

/// Per-run outcome of the startup policy (DESIGN.md §15): where playback
/// started across receivers and how smooth it was from there.
struct StartupSummary {
  std::string policy;
  sim::Slot max_start = 0;
  double average_start = 0;
  sim::Slot earliest_start = 0;
  /// Worst per-receiver stall count / stalled slots from the chosen
  /// starts.
  int stalls = 0;
  sim::Slot stall_slots = 0;
  /// Window packets (summed over receivers) never delivered by the
  /// horizon.
  sim::PacketId undecodable = 0;
  /// Latest slot any receiver finished playback.
  sim::Slot max_finish = 0;
};

/// Outcome of run_lossy() and run_startup() (whose reliable path leaves
/// `loss` zeroed).
struct LossRunResult {
  QosReport qos;
  LossSummary loss;
  StartupSummary startup;
};

/// Canonical byte-exact rendering of every report field (doubles at 17
/// significant digits), used by the golden parity suite and available for
/// diffing runs. One line for a QosReport, a second "loss ..." line for a
/// LossRunResult.
std::string serialize(const QosReport& r);
std::string serialize(const LossRunResult& r);
std::string serialize(const StartupSummary& s);

}  // namespace streamcast::core
