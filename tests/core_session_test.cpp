// run_session tests: every scheme runs end to end and the
// reports line up with the per-module closed forms and Table 1's shape.
#include <gtest/gtest.h>

#include "src/baseline/chain.hpp"
#include "src/baseline/single_tree.hpp"
#include "src/core/session.hpp"
#include "src/hypercube/analysis.hpp"
#include "src/multitree/analysis.hpp"
#include "src/multitree/greedy.hpp"
#include "src/multitree/schedule.hpp"
#include "src/scheme/registry.hpp"
#include "src/supertree/analysis.hpp"

namespace streamcast::core {
namespace {

QosReport run(Scheme scheme, NodeKey n, int d) {
  return run_session(SessionConfig{.scheme = scheme, .n = n, .d = d}).qos;
}

TEST(Session, MultiTreeGreedyMatchesClosedForm) {
  const auto r = run(Scheme::kMultiTreeGreedy, 100, 3);
  const auto f = multitree::build_greedy(100, 3);
  EXPECT_EQ(r.worst_delay, multitree::closed_form_worst_delay(f));
  EXPECT_NEAR(r.average_delay, multitree::closed_form_average_delay(f),
              1e-9);
  EXPECT_LE(r.max_buffer,
            static_cast<std::size_t>(multitree::worst_delay_bound(100, 3)));
  EXPECT_LE(r.max_neighbors, 6u);
}

TEST(Session, StructuredAndGreedyShareBounds) {
  const auto a = run(Scheme::kMultiTreeStructured, 63, 2);
  const auto b = run(Scheme::kMultiTreeGreedy, 63, 2);
  const sim::Slot bound = multitree::worst_delay_bound(63, 2);
  EXPECT_LE(a.worst_delay, bound);
  EXPECT_LE(b.worst_delay, bound);
}

TEST(Session, HypercubeMatchesAnalysis) {
  const auto r = run(Scheme::kHypercube, 127, 1);
  EXPECT_EQ(r.worst_delay, hypercube::measured_worst_delay(127));
  EXPECT_LE(r.max_buffer, 3u);
}

TEST(Session, HypercubePastTheNeighborRowCountsExactly) {
  // The smallest tier-1 hypercube with receivers at 25 distinct partners,
  // one past NeighborRecorder's row: the report is the one the per-node
  // std::set recorder produced.
  EXPECT_EQ(serialize(run(Scheme::kHypercube, 2500, 1)),
            "qos scheme=hypercube n=2500 d=1 worst_delay=35 "
            "average_delay=13.182 max_buffer=2 average_buffer=1.9976 "
            "max_neighbors=25 average_neighbors=10.484400000000001 "
            "transmissions=269539 slots_simulated=120 drops=0 "
            "retransmissions=0");
}

TEST(Session, HypercubeGroupedUsesSourceCapacity) {
  const auto r = run(Scheme::kHypercubeGrouped, 90, 3);
  EXPECT_EQ(r.worst_delay, hypercube::measured_worst_delay_grouped(90, 3));
}

TEST(Session, ChainIsLinear) {
  const auto r = run(Scheme::kChain, 50, 1);
  EXPECT_EQ(r.worst_delay, baseline::chain_worst_delay(50));
  EXPECT_LE(r.max_buffer, 1u);
  EXPECT_LE(r.max_neighbors, 2u);
}

TEST(Session, SingleTreeIsLogarithmic) {
  const auto r = run(Scheme::kSingleTree, 62, 2);
  EXPECT_EQ(r.worst_delay, baseline::single_tree_worst_delay(62, 2));
}

TEST(Session, TableOneShape) {
  // Table 1, realized for arbitrary N: multi-tree's O(d log N) worst-case
  // delay beats the hypercube chain's O(log^2 N); the hypercube wins on
  // buffer space (O(1) vs O(d log N)); multi-tree keeps O(d) neighbors
  // while the hypercube needs O(log N). (For special N = 2^k - 1 the cube
  // achieves O(log N) delay and can win — hence the non-special N here.)
  const NodeKey n = 500;
  const auto mt = run(Scheme::kMultiTreeGreedy, n, 2);
  const auto hc = run(Scheme::kHypercube, n, 1);
  EXPECT_LT(mt.worst_delay, hc.worst_delay);
  EXPECT_LT(hc.max_buffer, mt.max_buffer);
  EXPECT_LE(mt.max_neighbors, 4u);
  EXPECT_GE(hc.max_neighbors, 8u);  // the k=8 segment's cube degree

  // And at special N the cube's delay drops to exactly log2(N+1).
  const auto special = run(Scheme::kHypercube, 511, 1);
  EXPECT_EQ(special.worst_delay, 9);
  EXPECT_LT(special.worst_delay,
            run(Scheme::kMultiTreeGreedy, 511, 2).worst_delay);
}

TEST(Session, LiveModesShiftDelay) {
  SessionConfig cfg{.scheme = Scheme::kMultiTreeGreedy, .n = 40, .d = 2};
  const auto pre = run_session(cfg).qos;
  cfg.mode = multitree::StreamMode::kLivePrebuffered;
  const auto live = run_session(cfg).qos;
  EXPECT_EQ(live.worst_delay, pre.worst_delay + 2);
}

TEST(Session, ReportSummaryMentionsScheme) {
  const auto r = run(Scheme::kChain, 5, 1);
  EXPECT_NE(r.summary().find("chain"), std::string::npos);
  EXPECT_NE(r.summary().find("N=5"), std::string::npos);
}

TEST(Session, RejectsBadConfig) {
  EXPECT_THROW(run_session(SessionConfig{.n = 0}), std::invalid_argument);
  EXPECT_THROW(run_session(SessionConfig{.n = 5, .d = 0}),
               std::invalid_argument);
}

TEST(Session, MultiClusterMultiTree) {
  const auto r = run_session(SessionConfig{.scheme = Scheme::kMultiTreeGreedy,
                                           .n = 20,
                                           .d = 2,
                                           .clusters = 9,
                                           .big_d = 3,
                                           .t_c = 8})
                     .qos;
  EXPECT_EQ(r.n, 180);
  EXPECT_NE(r.scheme.find("x9 clusters"), std::string::npos);
  // Deepest cluster sits 2 backbone hops away: delay reflects 2*T_c.
  EXPECT_GE(r.worst_delay, 2 * 8);
  EXPECT_LE(r.worst_delay,
            supertree::structural_bound(9, 3, 8, 1, 2, 20));
}

TEST(Session, MultiClusterHypercube) {
  const auto r = run_session(SessionConfig{.scheme = Scheme::kHypercube,
                                           .n = 7,
                                           .d = 1,
                                           .clusters = 4,
                                           .big_d = 3,
                                           .t_c = 10})
                     .qos;
  EXPECT_EQ(r.n, 28);
  EXPECT_LE(r.max_buffer, 2u);
  EXPECT_LE(r.worst_delay,
            supertree::structural_bound_hypercube(4, 3, 10, 1, 7));
}

TEST(Session, MultiClusterRejectsBaselines) {
  EXPECT_THROW(run_session(SessionConfig{.scheme = Scheme::kChain,
                                         .n = 5,
                                         .d = 1,
                                         .clusters = 2}),
               std::invalid_argument);
}

TEST(Session, MultiClusterRejectsLiveModes) {
  // The super-tree runner streams pre-recorded data; a live mode across
  // clusters is rejected instead of silently run as pre-recorded. One
  // cluster still honors it.
  SessionConfig cfg{.scheme = Scheme::kMultiTreeGreedy,
                    .n = 40,
                    .d = 2,
                    .clusters = 4,
                    .t_c = 6};
  EXPECT_NO_THROW(validate(cfg));
  for (const auto mode : {multitree::StreamMode::kLivePrebuffered,
                          multitree::StreamMode::kLivePipelined}) {
    cfg.mode = mode;
    cfg.clusters = 4;
    EXPECT_THROW(run_session(cfg), std::invalid_argument);
    cfg.clusters = 1;
    EXPECT_NO_THROW(validate(cfg));
  }
}

TEST(Session, SectionsFollowTheRouteForEveryScheme) {
  // RunResult's section rule, scheme by scheme: loss and startup exactly on
  // lossy runs, scale on reliable single-cluster runs at or above the
  // replay threshold (replayed or pumped), and qos alone across clusters.
  for (const scheme::Descriptor& desc : scheme::all()) {
    SCOPED_TRACE(desc.name);
    SessionConfig cfg{.scheme = desc.id,
                      .n = 21,
                      .d = desc.caps.degree_sweep ? 2 : 1};

    cfg.scale.replay_threshold = 22;
    const RunResult below = run_session(cfg);
    EXPECT_FALSE(below.loss);
    EXPECT_FALSE(below.startup);
    EXPECT_FALSE(below.scale);

    cfg.scale.replay_threshold = 21;
    const RunResult at = run_session(cfg);
    EXPECT_FALSE(at.loss);
    EXPECT_FALSE(at.startup);
    ASSERT_TRUE(at.scale);
    EXPECT_EQ(at.scale->nodes, 21);
    EXPECT_EQ(at.scale->replayed, replay_eligible(cfg));
    EXPECT_EQ(serialize(at.qos), serialize(below.qos));

    // Every scheme accepts NACK recovery (only the delay-bounded streaming
    // code is capability-gated).
    SessionConfig lossy = cfg;
    lossy.loss.model = loss::ErasureKind::kBernoulli;
    lossy.loss.rate = 0.02;
    lossy.loss.recovery_policy = "nack";
    const RunResult l = run_session(lossy);
    EXPECT_TRUE(l.loss);
    EXPECT_TRUE(l.startup);
    EXPECT_FALSE(l.scale);

    if (desc.caps.multicluster) {
      SessionConfig multi{.scheme = desc.id,
                          .n = 8,
                          .d = cfg.d,
                          .clusters = 2,
                          .big_d = 3,
                          .t_c = 4};
      multi.scale.replay_threshold = 1;
      const RunResult m = run_session(multi);
      EXPECT_EQ(m.qos.n, 16);
      EXPECT_FALSE(m.loss);
      EXPECT_FALSE(m.startup);
      EXPECT_FALSE(m.scale);
    }
  }
}

TEST(Session, SchemeNames) {
  EXPECT_STREQ(scheme_name(Scheme::kMultiTreeStructured),
               "multi-tree/structured");
  EXPECT_STREQ(scheme_name(Scheme::kHypercubeGrouped), "hypercube/grouped");
}

}  // namespace
}  // namespace streamcast::core
