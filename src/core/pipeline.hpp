// The one run pipeline every session path flows through (DESIGN.md §9).
//
// RunPipeline owns engine construction, the ObserverStack (delay + neighbor
// recorders, optional continuity recorder, optional InvariantAuditor,
// optional Trace), the drain loop for lossy runs, and QosReport/LossSummary
// aggregation. core::run_session()'s single-cluster pump and the sharded
// super-tree runner are thin configurations of this class; every run path
// therefore gets identical observability and identical aggregation
// arithmetic for free.
//
// Wiring contract (byte-identity with the historical paths depends on it):
//  * reliable runs attach delays/neighbors to the engine, then the auditor;
//  * lossy runs attach the recovery protocol to the engine as an observer
//    (drop reports + post-repair fan-out) before the auditor, and the
//    metric recorders to the recovery layer, so metrics observe the
//    post-repair stream while the auditor watches the physical one.
//
// One recorder family (DESIGN.md §9, §11): every run records delays and
// neighbors in the flat metrics layout, and the continuity recorder, when
// attached, replays the delay recorder's arrival matrix instead of keeping
// its own. Every pipeline allocation is charged against a
// util::BudgetLedger sized by ScaleOptions::budget_bytes, so an oversized
// world fails fast with BudgetExceeded instead of OOM-ing the host.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/audit/auditor.hpp"
#include "src/core/config.hpp"
#include "src/core/report.hpp"
#include "src/loss/recovery.hpp"
#include "src/metrics/continuity.hpp"
#include "src/metrics/delay.hpp"
#include "src/metrics/neighbors.hpp"
#include "src/policy/startup.hpp"
#include "src/scale/recorder.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/trace.hpp"
#include "src/util/budget.hpp"

namespace streamcast::core {

/// Which observers a run wants attached, and how they are sized.
struct ObserverSpec {
  /// Packets [0, window) measured.
  PacketId window = 0;
  /// Recorder key space: n + 1 for a single cluster, the full topology
  /// size for the super-tree composition.
  NodeKey node_span = 0;
  /// Attach a ContinuityRecorder to the recovery layer (lossy runs only:
  /// stalls / undecodable gaps).
  bool continuity = false;
  /// Attach the InvariantAuditor with these options.
  bool audit = false;
  audit::AuditOptions audit_options{};
  /// Caller-owned delivery trace, attached last when non-null.
  sim::Trace* trace = nullptr;
  /// Scale-path thresholds, sketch accuracy, and the memory budget.
  scale::ScaleOptions scale{};
};

/// The observers of one run, constructed and wired in one place: one delay
/// and one neighbor recorder, charged to the ledger, plus the optional
/// continuity recorder (reading the delay recorder's matrix), auditor and
/// trace. Pinned in place: the continuity recorder refers to the delay
/// recorder.
class ObserverStack {
 public:
  ObserverStack(const net::Topology& topology, const ObserverSpec& spec,
                util::BudgetLedger* ledger);
  ObserverStack(const ObserverStack&) = delete;
  ObserverStack& operator=(const ObserverStack&) = delete;

  /// Attaches everything in the contract order described above. `recovery`
  /// selects the lossy wiring (metrics observe the post-repair stream).
  void attach(sim::Engine& engine, loss::RecoveryProtocol* recovery);

  const metrics::DelayRecorder& delays() const { return delays_; }
  const metrics::NeighborRecorder& neighbors() const { return neighbors_; }
  const metrics::ContinuityRecorder* continuity() const {
    return continuity_ ? &*continuity_ : nullptr;
  }
  audit::InvariantAuditor* auditor() {
    return auditor_ ? &*auditor_ : nullptr;
  }

  /// Throws sim::ProtocolViolation if the auditor recorded any violation.
  /// No-op without an auditor.
  void require_clean();

 private:
  metrics::DelayRecorder delays_;
  metrics::NeighborRecorder neighbors_;
  std::optional<metrics::ContinuityRecorder> continuity_;
  std::optional<audit::InvariantAuditor> auditor_;
  sim::Trace* trace_;
};

/// How a finished run is folded into a QosReport.
struct Aggregation {
  std::string label;
  NodeKey report_n = 0;
  int d = 0;
  /// Node keys aggregated (receivers only; supers and relays excluded).
  std::vector<NodeKey> receivers;
  /// Lossy runs: count receivers with incomplete windows instead of
  /// throwing (a lossy run may legitimately time out).
  bool skip_incomplete = false;
};

/// Inputs to the shared QoS fold, decoupled from RunPipeline so the sharded
/// runner (src/core/shard) can feed per-shard observer stacks through the
/// exact same arithmetic. `stack_of(key)` returns the stack that observed
/// `key` — the pipeline's own single stack for the serial pump, the owning
/// shard's stack when sharded. Iteration stays in `Aggregation::receivers`
/// order either way, so every floating-point sum folds in the same order
/// and the QosReport is byte-identical by construction (DESIGN.md §14).
struct AggregateInputs {
  std::function<const ObserverStack&(NodeKey)> stack_of;
  /// Engine totals (summed over shards in submission order when sharded).
  sim::EngineStats stats{};
  /// Last slot simulated.
  Slot end = 0;
  scale::ScaleOptions scale{};
  /// Memory accounting for ScaleSummary; may be null when no summary is
  /// requested.
  const util::BudgetLedger* ledger = nullptr;
};

QosReport aggregate_qos(const Aggregation& agg, const AggregateInputs& in,
                        NodeKey* incomplete = nullptr,
                        scale::ScaleSummary* summary = nullptr);

class RunPipeline {
 public:
  /// For a lossy run, `protocol` is the RecoveryProtocol itself (it drives
  /// the engine) and `recovery` points at it; `loss_model` is attached to
  /// the engine. Reliable runs pass the scheme protocol and leave both
  /// null. The topology must outlive the pipeline.
  RunPipeline(net::Topology& topology, sim::Protocol& protocol,
              const ObserverSpec& observers,
              loss::LossModel* loss_model = nullptr,
              loss::RecoveryProtocol* recovery = nullptr);

  /// Receivers whose gap-free prefix must cover the window before the
  /// drain loop stops (lossy runs; max_drain == 0 disables draining).
  struct DrainPolicy {
    NodeKey from = 1;
    NodeKey to = 0;
    Slot max_drain = 0;
  };

  /// Simulates to `horizon`, drains in 32-slot chunks while receivers still
  /// have gaps (lossy runs), then finalizes the auditor (throwing on any
  /// recorded violation).
  void run(Slot horizon, DrainPolicy drain);
  void run(Slot horizon) { run(horizon, DrainPolicy{}); }

  /// Aggregates delay/buffer over (complete) receivers and neighbor counts
  /// over all receivers, plus the engine-level totals. `incomplete`, when
  /// given, receives the number of skipped receivers. `summary`, when
  /// given, additionally receives the sketched delay/buffer distributions
  /// and the ledger's memory accounting.
  QosReport aggregate(const Aggregation& agg, NodeKey* incomplete = nullptr,
                      scale::ScaleSummary* summary = nullptr) const;

  /// Folds recovery-layer stats and the continuity report over receivers
  /// [from, to] into a LossSummary, replaying playback from the slot the
  /// startup policy picks per receiver. Requires the lossy wiring.
  /// `startup_out`, when given, additionally receives the startup fold
  /// (chosen starts, stalls from them, finish slots).
  LossSummary loss_summary(const LossConfig& loss,
                           const policy::StartupPolicy& startup, NodeKey from,
                           NodeKey to, Slot worst_delay,
                           StartupSummary* startup_out = nullptr) const;

  ObserverStack& observers() { return observers_; }
  const ObserverStack& observers() const { return observers_; }
  sim::Engine& engine() { return engine_; }
  const util::BudgetLedger& ledger() const { return ledger_; }

  /// Last slot simulated (horizon + drained slots).
  Slot end() const { return end_; }
  Slot drained() const { return drained_; }

 private:
  /// Declared first: the engine and the observers charge it, so it must
  /// outlive both.
  util::BudgetLedger ledger_;
  scale::ScaleOptions scale_options_;
  sim::Engine engine_;
  ObserverStack observers_;
  loss::RecoveryProtocol* recovery_;
  PacketId window_;
  Slot end_ = 0;
  Slot drained_ = 0;
};

}  // namespace streamcast::core
