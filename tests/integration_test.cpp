// Cross-module integration tests pinning behaviors that individual module
// suites don't: exact backbone arrival timing, dummy-slot silence,
// steady-state throughput accounting, and the feeder's spare capacity.
#include <gtest/gtest.h>

#include "src/hypercube/protocol.hpp"
#include "src/metrics/delay.hpp"
#include "src/multitree/analysis.hpp"
#include "src/multitree/greedy.hpp"
#include "src/multitree/protocol.hpp"
#include "src/net/topology.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/trace.hpp"
#include "src/supertree/protocol.hpp"

namespace streamcast {
namespace {

TEST(Integration, BackbonePipelineTimingIsExact) {
  // Packet j reaches the depth-L super node in slot j + L*T_c - 1 and its
  // local root one T_i later, for every packet after warm-up.
  const sim::Slot t_c = 7;
  std::vector<net::ClusteredTopology::ClusterSpec> specs(
      9, net::ClusteredTopology::ClusterSpec{4});
  net::ClusteredTopology topo(specs, 3, 2, t_c);
  supertree::SuperTreeProtocol proto(topo);
  sim::Engine engine(topo, proto);
  sim::Trace trace;
  engine.add_observer(trace);
  engine.run_until(60);

  // offset(c): packet j reaches S_c in slot j + offset(c). The first hop is
  // T_i for cluster 0 (the source sits in cluster 0 by convention) and T_c
  // otherwise; every further hop costs one relay slot plus T_c.
  std::vector<sim::Slot> offset(9);
  for (int c = 0; c < 9; ++c) {
    const int parent = proto.backbone().parent[static_cast<std::size_t>(c)];
    offset[static_cast<std::size_t>(c)] =
        parent < 0 ? (c == 0 ? 1 : t_c) - 1
                   : offset[static_cast<std::size_t>(parent)] + t_c;
  }
  for (int c = 0; c < 9; ++c) {
    for (const auto& d : trace.received_by(topo.super_node(c))) {
      EXPECT_EQ(d.received, d.tx.packet + offset[static_cast<std::size_t>(c)])
          << "cluster " << c << " packet " << d.tx.packet;
    }
    for (const auto& d : trace.received_by(topo.local_root(c))) {
      EXPECT_EQ(d.received,
                d.tx.packet + offset[static_cast<std::size_t>(c)] + 1)
          << "cluster " << c;
    }
  }
}

TEST(Integration, DummySlotsAreNeverAddressed) {
  // N = 16, d = 3 pads to 18 with dummies 17, 18: the engine must never see
  // a key above 16 — dummies are "removed in the real system".
  const multitree::Forest f = multitree::build_greedy(16, 3);
  ASSERT_EQ(f.n_pad(), 18);
  net::UniformCluster topo(16, 3);
  multitree::MultiTreeProtocol proto(f);
  sim::Engine engine(topo, proto);
  sim::Trace trace;
  engine.add_observer(trace);
  engine.run_until(60);
  for (const auto& d : trace.all()) {
    EXPECT_LE(d.tx.to, 16);
    EXPECT_LE(d.tx.from, 16);
  }
  // And the dummies' round-robin turns are real: the source still uses only
  // d sends per slot, so throughput per slot is at most N (one receive per
  // node) and at least N - d (skipped dummy turns).
  const auto slot50 = trace.sent_in(50);
  EXPECT_GE(slot50.size(), 16u - 3u);
  EXPECT_LE(slot50.size(), 16u);
}

TEST(Integration, SteadyStateThroughputIsOnePacketPerNodePerSlot) {
  // Multi-tree: after warm-up, exactly one delivery per receiver per slot.
  const multitree::Forest f = multitree::build_greedy(27, 3);
  net::UniformCluster topo(27, 3);
  multitree::MultiTreeProtocol proto(f);
  sim::Engine engine(topo, proto);
  sim::Trace trace;
  engine.add_observer(trace);
  engine.run_until(80);
  const sim::Slot warmup = multitree::worst_delay_bound(27, 3) + 3;
  for (sim::Slot t = warmup; t < 75; ++t) {
    EXPECT_EQ(trace.sent_in(t).size(), 27u) << "slot " << t;
  }
}

TEST(Integration, CubeFeederSendsNothingInCube) {
  // §3.2's spare capacity: in every steady-state slot, the vertex paired
  // with the source receives the fresh packet and sends nothing (single
  // cube; in a chain that send feeds the next cube).
  const sim::NodeKey n = 15;  // k = 4
  net::UniformCluster topo(n, 1);
  hypercube::HypercubeProtocol proto({hypercube::decompose_chain(n)});
  sim::Engine engine(topo, proto);
  sim::Trace trace;
  engine.add_observer(trace);
  engine.run_until(40);
  for (sim::Slot t = 8; t < 36; ++t) {
    // Who received from the source this slot?
    sim::NodeKey fresh = -1;
    for (const auto& d : trace.sent_in(t)) {
      if (d.tx.from == 0) fresh = d.tx.to;
    }
    ASSERT_NE(fresh, -1) << "slot " << t;
    for (const auto& d : trace.sent_in(t)) {
      EXPECT_NE(d.tx.from, fresh) << "feeder sent in-cube at slot " << t;
    }
    // And everyone else sends exactly once: N-1 + 1 source send = N.
    EXPECT_EQ(trace.sent_in(t).size(), static_cast<std::size_t>(n));
  }
}

TEST(Integration, MultiTreeTagsMatchPacketResidue) {
  const multitree::Forest f = multitree::build_greedy(15, 3);
  net::UniformCluster topo(15, 3);
  multitree::MultiTreeProtocol proto(f);
  sim::Engine engine(topo, proto);
  sim::Trace trace;
  engine.add_observer(trace);
  engine.run_until(30);
  for (const auto& d : trace.all()) {
    EXPECT_EQ(d.tx.tag, d.tx.packet % 3);
  }
}

}  // namespace
}  // namespace streamcast
