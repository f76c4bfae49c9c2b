// Golden-parity suite for the sharded multicluster runner (DESIGN.md §14):
// the merged QosReport, audit verdicts, and semantic engine totals at every
// shard count must equal the shards == 1 run byte-for-byte, across shard
// counts that divide the cluster count, exceed it, and straddle it (K < S
// and K not divisible by S). Also runs under the tsan preset: the epoch
// barrier, the mailbox exchange, and the per-shard arenas must be clean
// under ThreadSanitizer, not just correct.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/core/report.hpp"
#include "src/core/session.hpp"
#include "src/core/shard.hpp"

namespace streamcast {
namespace {

using core::QosReport;
using core::SessionConfig;
using core::ShardMetrics;
using core::ShardOptions;

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
  config.audit = true;
  return config;
}

ShardOptions shard_opts(int shards) {
  ShardOptions opts;
  opts.shards = shards;
  return opts;
}

TEST(ShardMerge, ByteIdenticalAcrossShardCounts) {
  for (const int clusters : kClusterCounts) {
    const SessionConfig config = base_config(clusters);
    ShardMetrics baseline_metrics;
    const std::string golden = core::serialize(
        run_multicluster_sharded(config, shard_opts(1), &baseline_metrics));

    for (const int shards : kShardCounts) {
      if (shards == 1) continue;
      ShardMetrics metrics;
      const QosReport report =
          run_multicluster_sharded(config, shard_opts(shards), &metrics);
      const std::string label = "K=" + std::to_string(clusters) +
                                " shards=" + std::to_string(shards);
      EXPECT_EQ(core::serialize(report), golden) << label;
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

TEST(ShardMerge, SessionPathDelegatesToShardedRunner) {
  SessionConfig config = base_config(5);
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
