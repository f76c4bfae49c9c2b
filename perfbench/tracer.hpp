// Outside-in layer tracing for the traced run.
//
// The traced run drives the same public pipeline StreamingSession drives —
// scheme::descriptor().build, core::RunPipeline (construct, run, aggregate,
// loss_summary), core::run_multicluster_sharded, scale::replay_structured —
// and opens a span around each call. Three objects are wrapped in
// forwarding decorators so the engine's calls into them are spans too: the
// scheme protocol, the loss::RecoveryProtocol the engine drives, and the
// loss model. A layer's self time is its spans' time minus the time of the
// spans nested in them.
//
// Coarse spans (one per call above, a handful per session) are kept as
// records with name, start, end, parent and session id. Protocol, recovery
// and loss-model spans fire tens of thousands of times per session; they
// are folded into per-layer totals as they close and kept as one folded
// record per (session, layer), so tracing never allocates inside a span.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/mix.hpp"
#include "src/loss/model.hpp"
#include "src/sim/protocol.hpp"

namespace perfbench {

enum Layer : int {
  // Coarse spans, recorded individually.
  kSession,
  kBuild,        // scheme::descriptor().build
  kConstruct,    // RunPipeline construction (with the lossy wiring)
  kRun,          // RunPipeline::run
  kAggregate,    // RunPipeline::aggregate
  kStartupFold,  // RunPipeline::loss_summary
  kShard,        // core::run_multicluster_sharded
  kReplay,       // scale::replay_structured
  // Fine spans, folded per session.
  kProtoMultitree,
  kProtoHypercube,
  kProtoBaseline,
  kProtoRrd,
  kProtoDyntree,
  kRecoveryNack,
  kRecoveryXor,
  kRecoveryCode,
  kModel,
  kEmpty,  // calibration of the span cost
  kLayerCount
};

inline constexpr int kFirstFine = kProtoMultitree;

const char* layer_name(Layer layer);

struct LayerTotals {
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::int64_t calls = 0;
  std::int64_t allocs = 0;       // inside the span, children included
  std::int64_t self_allocs = 0;  // inside the span, children excluded
};

class Tracer {
 public:
  /// Reserves room for `coarse_records` coarse spans and `sessions`
  /// sessions' folded records up front; exceeding either is an error
  /// (overflowed() turns true) instead of an allocation inside a span.
  Tracer(std::size_t coarse_records, std::size_t sessions);

  void begin(Layer layer);
  void end();

  /// Opens a session: later spans carry its id.
  void start_session(int id);
  /// Folds the session's fine-span totals into per-session records.
  void finish_session();

  const std::array<LayerTotals, kLayerCount>& totals() const {
    return totals_;
  }

  bool overflowed() const { return overflowed_; }

  /// Writes every record as one JSON object per line.
  void write(const std::string& path) const;

 private:
  struct Frame {
    Layer layer;
    std::int64_t start;
    std::int64_t child_ns;
    std::uint64_t alloc_start;
    std::uint64_t child_allocs;
    std::int32_t record;
  };
  struct Record {
    Layer layer;
    std::int32_t session;
    std::int32_t parent;  // record index, -1 at the top
    std::int64_t start;
    std::int64_t end;
  };
  struct Folded {
    Layer layer;
    std::int32_t session;
    LayerTotals totals;
  };

  static constexpr int kMaxDepth = 16;
  std::array<Frame, kMaxDepth> stack_{};
  int depth_ = 0;
  std::int32_t session_ = -1;
  std::array<LayerTotals, kLayerCount> totals_{};
  std::array<LayerTotals, kLayerCount> session_start_{};
  std::vector<Record> records_;
  std::vector<Folded> folded_;
  bool overflowed_ = false;
};

class Span {
 public:
  Span(Tracer& tracer, Layer layer) : tracer_(tracer) { tracer_.begin(layer); }
  ~Span() { tracer_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

/// Forwards every engine call to `inner` inside a span of `layer`.
class TracedProtocol final : public streamcast::sim::Protocol {
 public:
  TracedProtocol(streamcast::sim::Protocol& inner, Tracer& tracer, Layer layer)
      : inner_(inner), tracer_(tracer), layer_(layer) {}
  void transmit(streamcast::sim::Slot t,
                std::vector<streamcast::sim::Tx>& out) override;
  void deliver(streamcast::sim::Slot t,
               const streamcast::sim::Tx& tx) override;

 private:
  streamcast::sim::Protocol& inner_;
  Tracer& tracer_;
  Layer layer_;
};

/// Forwards every erasure query to `inner` inside a kModel span.
class TracedLossModel final : public streamcast::loss::LossModel {
 public:
  TracedLossModel(streamcast::loss::LossModel& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  bool erased(streamcast::sim::Slot t, const streamcast::sim::Tx& tx) override;

 private:
  streamcast::loss::LossModel& inner_;
  Tracer& tracer_;
};

/// Counters the traced run reads from the layers' own results.
struct LayerCounts {
  // Engine (EngineStats, summed over every session that ran the engine).
  std::int64_t transmissions = 0;
  std::int64_t deliveries = 0;
  std::int64_t slots = 0;
  std::int64_t arena_chunks = 0;
  std::int64_t ring_relayouts = 0;
  std::int64_t seen_relayouts = 0;
  /// Transmissions of RunPipeline::run sessions (the pump.ns_per_tx base).
  std::int64_t pipeline_transmissions = 0;
  // Loss (LossSummary and RecoveryStats, summed over lossy sessions).
  std::int64_t drops = 0;
  std::int64_t nacks = 0;
  std::int64_t retransmissions = 0;
  std::int64_t parity = 0;
  std::int64_t suppressed = 0;
  std::int64_t fec_decodes = 0;
  std::int64_t data_transmissions = 0;
  std::int64_t drain_slots = 0;
  std::int64_t lossy_slots = 0;
  std::int64_t drain_cap_hits = 0;
  // Shard runner (ShardMetrics).
  double shard_construct_s = 0;
  double shard_pump_s = 0;
  double shard_merge_s = 0;
  /// Pump time of sharded sessions and of the same sessions on one shard,
  /// times the shard count (the shard.efficiency ratio's terms).
  double sharded_pump_s = 0;
  double serial_pump_s = 0;
  // Scale (replay and ScaleSummary).
  std::int64_t replay_nodes = 0;
  std::int64_t bytes_peak = 0;
};

/// Runs `s` through the public pipeline with every layer call in a span.
/// Returns the same Outcome run_session() returns (byte-identical when
/// rendered). Sharded sessions are also rerun on one shard, outside any
/// span, for shard.efficiency; a mismatch there throws.
Outcome run_traced(const Session& s, Tracer& tracer, LayerCounts& counts);

}  // namespace perfbench
