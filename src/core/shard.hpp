// Intra-run sharded multicluster execution (DESIGN.md §14).
//
// One super-tree run is split across a std::jthread pool at the cluster
// boundary: shard s owns the contiguous cluster range
// [⌊sK/S⌋, ⌊(s+1)K/S⌋) — its protocol slice, SoA engine state, arena-backed
// in-flight ring, and observer stack — and advances T_c slots per epoch.
// Shards interact only
// through backbone packets, and every cross-shard link has latency exactly
// T_c (shards are cluster-contiguous, the global source sits in cluster 0,
// and all cross-cluster latencies are T_c), so a packet sent during epoch e
// arrives either in the last slot of epoch e (injected retroactively at the
// barrier through the engine's late-delivery path) or inside epoch e+1
// (ringed before the epoch starts). A T_c-slot epoch therefore cannot
// reorder backbone delivery; the proof sketch is in DESIGN.md §14.
//
// Byte-identity contract: the merged QosReport, audit verdicts, and
// engine totals at ANY shard count equal the shards == 1 run bit-for-bit.
// Aggregation reuses core::aggregate_qos with receivers iterated in global
// (cluster, local) order — each read from its owning shard's stack — so
// every floating-point fold happens in the serial order; EngineStats are
// summed in shard submission order.
//
// The runner streams what core::run_session's validation admits across
// clusters: pre-recorded data over reliable links, every receiver's window
// complete.
#pragma once

#include "src/core/config.hpp"
#include "src/core/report.hpp"
#include "src/sim/engine.hpp"

namespace streamcast::core {

/// Per-phase wall time and allocation accounting of one sharded run, for
/// `bench/perf_sweep --shards` (shard overhead must be attributable, not
/// just end-to-end).
struct ShardMetrics {
  int shards = 1;
  double construct_s = 0;
  double pump_s = 0;
  double merge_s = 0;
  /// Engine totals summed over shards in submission order (allocation
  /// counters included).
  sim::EngineStats stats{};
};

/// How the sharded multicluster runner executes one run.
struct ShardOptions {
  /// Worker count; clamped to [1, clusters]. 1 = the serial pump.
  int shards = 1;
};

/// Runs one multicluster session sharded `opts.shards` ways and returns the
/// merged QosReport. `metrics`, when given, receives per-phase wall times
/// and merged engine totals. Throws the first worker's exception (in shard
/// order) if any shard fails, std::logic_error if a receiver's window is
/// incomplete, and, on audit runs (config.audit), sim::ProtocolViolation if
/// any shard's auditor is unclean.
QosReport run_multicluster_sharded(const SessionConfig& config,
                                   const ShardOptions& opts = {},
                                   ShardMetrics* metrics = nullptr);

}  // namespace streamcast::core
