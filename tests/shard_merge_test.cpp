// Golden-parity suite for the sharded multicluster runner (DESIGN.md §14):
// the merged QosReport, trace, audit verdicts, and semantic engine totals at
// every shard count must equal the shards == 1 run byte-for-byte, across
// shard counts that divide the cluster count, exceed it, and straddle it
// (K < S and K not divisible by S), for audited, lossy, and live-pipelined
// cells. Also runs under the tsan preset: the epoch barrier, the mailbox
// exchange, and the per-shard arenas must be clean under
// ThreadSanitizer, not just correct.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/report.hpp"
#include "src/core/session.hpp"
#include "src/core/shard.hpp"
#include "src/multitree/forest.hpp"
#include "src/multitree/greedy.hpp"
#include "src/sim/erasure.hpp"
#include "src/sim/trace.hpp"

namespace streamcast {
namespace {

using core::QosReport;
using core::SessionConfig;
using core::ShardMetrics;
using core::ShardOptions;
using sim::NodeKey;
using sim::Slot;
using sim::Tx;

constexpr int kShardCounts[] = {1, 2, 3, 8};
constexpr int kClusterCounts[] = {1, 2, 5, 7};

SessionConfig base_config(int clusters) {
  SessionConfig config;
  config.scheme = core::Scheme::kMultiTreeGreedy;
  config.n = 12;
  config.d = 2;
  config.clusters = clusters;
  config.big_d = 3;
  config.t_c = 4;
  config.audit = false;  // per-cell choice; the audit preset default would
                         // wrongly audit the lossy and live cells
  return config;
}

/// Deterministic erasure oracle that only drops deliveries to plain
/// receivers that are *leaves* in the delivering tree — the one edge class
/// the multi-tree protocol tolerates losing (interior relays and backbone
/// hops carry in-order asserts). Decisions are a pure function of (t, tx),
/// so any partition of senders across shards reproduces the serial stream
/// by construction (the shardability precondition, DESIGN.md §14).
class LeafOnlyLoss final : public sim::ErasureOracle {
 public:
  LeafOnlyLoss(NodeKey n, int d)
      : n_(n), forest_(multitree::build_greedy(n, d)) {}

  bool erased(Slot t, const Tx& tx) override {
    if (tx.to <= 0 || tx.tag < 0) return false;
    // ClusteredTopology layout: key 0 = S, then per cluster S_i, S'_i and n
    // receivers — so within a cluster block, offsets 0 and 1 are relays.
    const NodeKey offset = (tx.to - 1) % (n_ + 2);
    if (offset < 2) return false;
    const NodeKey local = offset - 1;
    if (forest_.interior_tree_of(local) == tx.tag) return false;
    return (t + 7 * tx.to + 3 * tx.packet) % 5 == 0;
  }

 private:
  NodeKey n_;
  multitree::Forest forest_;
};

struct Cell {
  const char* name;
  bool audit = false;
  bool lossy = false;
  multitree::StreamMode mode = multitree::StreamMode::kPreRecorded;
};

constexpr Cell kCells[] = {
    {.name = "audited", .audit = true},
    {.name = "lossy", .lossy = true},
    {.name = "live-pipelined",
     .mode = multitree::StreamMode::kLivePipelined},
};

ShardOptions cell_options(const Cell& cell, const SessionConfig& config,
                          int shards, sim::Trace* trace = nullptr) {
  ShardOptions opts;
  opts.shards = shards;
  opts.mode = cell.mode;
  opts.skip_incomplete = !cell.audit;
  opts.trace = trace;
  if (cell.lossy) {
    const NodeKey n = config.n;
    const int d = config.d;
    opts.make_loss = [n, d](int) {
      return std::make_unique<LeafOnlyLoss>(n, d);
    };
  }
  return opts;
}

ShardOptions shard_opts(int shards) {
  ShardOptions opts;
  opts.shards = shards;
  return opts;
}

std::string describe(const Cell& cell, int clusters, int shards) {
  std::ostringstream os;
  os << cell.name << " K=" << clusters << " shards=" << shards;
  return os.str();
}

std::string trace_text(const sim::Trace& trace) {
  std::ostringstream os;
  for (const sim::Delivery& d : trace.all()) {
    os << d.sent << ' ' << d.received << ' ' << d.tx.from << ' ' << d.tx.to
       << ' ' << d.tx.packet << ' ' << d.tx.tag << '\n';
  }
  for (const sim::Drop& d : trace.drops()) {
    os << "drop " << d.sent << ' ' << d.would_arrive << ' ' << d.tx.from
       << ' ' << d.tx.to << ' ' << d.tx.packet << ' ' << d.tx.tag << '\n';
  }
  return os.str();
}

TEST(ShardMerge, ByteIdenticalAcrossShardCounts) {
  for (const Cell& cell : kCells) {
    for (const int clusters : kClusterCounts) {
      SessionConfig config = base_config(clusters);
      config.audit = cell.audit;

      NodeKey baseline_incomplete = 0;
      ShardMetrics baseline_metrics;
      const QosReport baseline = run_multicluster_sharded(
          config, cell_options(cell, config, 1), &baseline_metrics,
          &baseline_incomplete);
      const std::string golden = core::serialize(baseline);

      for (const int shards : kShardCounts) {
        if (shards == 1) continue;
        NodeKey incomplete = 0;
        ShardMetrics metrics;
        const QosReport report = run_multicluster_sharded(
            config, cell_options(cell, config, shards), &metrics,
            &incomplete);
        const std::string label = describe(cell, clusters, shards);
        EXPECT_EQ(core::serialize(report), golden) << label;
        EXPECT_EQ(incomplete, baseline_incomplete) << label;
        // Semantic engine totals merge to the serial figures; allocation
        // counters legitimately differ (one arena/ring per shard).
        EXPECT_EQ(metrics.stats.transmissions,
                  baseline_metrics.stats.transmissions)
            << label;
        EXPECT_EQ(metrics.stats.deliveries, baseline_metrics.stats.deliveries)
            << label;
        EXPECT_EQ(metrics.stats.drops, baseline_metrics.stats.drops) << label;
        EXPECT_EQ(metrics.stats.duplicate_deliveries,
                  baseline_metrics.stats.duplicate_deliveries)
            << label;
        EXPECT_EQ(metrics.shards, std::min(shards, clusters)) << label;
      }
    }
  }
}

TEST(ShardMerge, TraceMergesCanonically) {
  for (const Cell& cell : kCells) {
    SessionConfig config = base_config(5);
    config.audit = cell.audit;

    sim::Trace serial_trace;
    ShardMetrics serial_metrics;
    run_multicluster_sharded(config, cell_options(cell, config, 1,
                                                  &serial_trace),
                             &serial_metrics);
    const std::string golden = trace_text(serial_trace);
    ASSERT_FALSE(serial_trace.all().empty());
    EXPECT_EQ(static_cast<std::int64_t>(serial_trace.all().size()),
              serial_metrics.stats.deliveries)
        << cell.name;

    for (const int shards : {2, 3, 8}) {
      sim::Trace trace;
      run_multicluster_sharded(config,
                               cell_options(cell, config, shards, &trace));
      EXPECT_EQ(trace_text(trace), golden)
          << describe(cell, 5, shards);
    }
  }
}

TEST(ShardMerge, SessionPathDelegatesToShardedRunner) {
  SessionConfig config = base_config(5);
  config.audit = true;
  const std::string golden =
      core::serialize(core::run_session(config).qos);
  for (const int shards : {2, 3, 8}) {
    config.shards = shards;
    EXPECT_EQ(core::serialize(core::run_session(config).qos), golden)
        << "shards=" << shards;
  }
}

TEST(ShardMerge, HypercubeIntraShardsIdentically) {
  SessionConfig config = base_config(5);
  config.scheme = core::Scheme::kHypercube;
  config.audit = true;
  const std::string golden =
      core::serialize(run_multicluster_sharded(config, shard_opts(1)));
  for (const int shards : {2, 3, 8}) {
    EXPECT_EQ(core::serialize(
                  run_multicluster_sharded(config, shard_opts(shards))),
              golden)
        << "shards=" << shards;
  }
}

TEST(ShardMerge, ArenaCountersSurfaceInMergedStats) {
  SessionConfig config = base_config(5);
  ShardMetrics metrics;
  run_multicluster_sharded(config, shard_opts(3), &metrics);
  EXPECT_EQ(metrics.shards, 3);
  EXPECT_GT(metrics.stats.arena_allocations, 0);
  EXPECT_GT(metrics.stats.arena_bytes, 0);
  EXPECT_GT(metrics.stats.arena_chunks, 0);
  EXPECT_GT(metrics.pump_s, 0.0);
  EXPECT_GE(metrics.construct_s, 0.0);
  EXPECT_GE(metrics.merge_s, 0.0);
}

TEST(ShardMerge, RejectsInvalidSessionShardCount) {
  SessionConfig config = base_config(2);
  config.shards = 0;
  EXPECT_THROW(core::run_session(config), std::invalid_argument);
}

}  // namespace
}  // namespace streamcast
