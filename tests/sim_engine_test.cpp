// Engine tests: latency semantics, capacity enforcement, duplicate
// detection, observer dispatch and the phase-2 contract, loss hooks,
// in-flight ring growth.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "src/loss/model.hpp"
#include "src/net/topology.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/trace.hpp"

namespace streamcast::sim {
namespace {

/// Scripted protocol: replays a fixed list of (slot, Tx).
class Scripted final : public Protocol {
 public:
  void at(Slot t, Tx tx) { script_.emplace_back(t, tx); }

  void transmit(Slot t, std::vector<Tx>& out) override {
    for (const auto& [slot, tx] : script_) {
      if (slot == t) out.push_back(tx);
    }
  }
  void deliver(Slot t, const Tx& tx) override {
    delivered.push_back(Delivery{.sent = -1, .received = t, .tx = tx});
  }

  std::vector<Delivery> delivered;

 private:
  std::vector<std::pair<Slot, Tx>> script_;
};

/// Keeps every delivery in `all`, and each span it is handed in `spans`.
class Recorder final : public DeliveryObserver {
 public:
  void on_deliveries(std::span<const Delivery> arrivals) override {
    all.insert(all.end(), arrivals.begin(), arrivals.end());
    spans.emplace_back(arrivals.begin(), arrivals.end());
  }
  std::vector<Delivery> all;
  std::vector<std::vector<Delivery>> spans;
};

Tx tx(NodeKey from, NodeKey to, PacketId p) {
  return Tx{.from = from, .to = to, .packet = p, .tag = 0};
}

TEST(Engine, UnitLatencyDeliversSameSlot) {
  net::UniformCluster topo(3, 1);
  Scripted proto;
  proto.at(0, tx(0, 1, 0));
  Engine engine(topo, proto);
  Recorder rec;
  engine.add_observer(rec);
  engine.run_until(1);
  ASSERT_EQ(rec.all.size(), 1u);
  EXPECT_EQ(rec.all[0].sent, 0);
  EXPECT_EQ(rec.all[0].received, 0);
  EXPECT_EQ(proto.delivered.size(), 1u);
}

TEST(Engine, InterClusterLatencyDelaysDelivery) {
  // Two clusters, T_c = 5: a cross-cluster packet sent in slot 0 arrives in
  // slot 4 (occupies 5 slots).
  net::ClusteredTopology topo({{.n_receivers = 2}, {.n_receivers = 2}},
                              /*big_d=*/3, /*small_d=*/2, /*t_c=*/5);
  Scripted proto;
  proto.at(0, tx(topo.super_node(0), topo.super_node(1), 7));
  Engine engine(topo, proto);
  Recorder rec;
  engine.add_observer(rec);
  engine.run_until(4);
  EXPECT_TRUE(rec.all.empty());
  engine.run_until(5);
  ASSERT_EQ(rec.all.size(), 1u);
  EXPECT_EQ(rec.all[0].received, 4);
}

TEST(Engine, SendCapacityEnforced) {
  net::UniformCluster topo(3, /*source_capacity=*/2);
  Scripted proto;
  proto.at(0, tx(0, 1, 0));
  proto.at(0, tx(0, 2, 1));
  proto.at(0, tx(0, 3, 2));  // third send from S: over capacity 2
  Engine engine(topo, proto);
  EXPECT_THROW(engine.run_until(1), ProtocolViolation);
}

TEST(Engine, ReceiverSendCapacityIsOne) {
  net::UniformCluster topo(3, 4);
  Scripted proto;
  proto.at(0, tx(1, 2, 0));
  proto.at(0, tx(1, 3, 1));
  Engine engine(topo, proto);
  EXPECT_THROW(engine.run_until(1), ProtocolViolation);
}

TEST(Engine, ReceiveCapacityEnforced) {
  net::UniformCluster topo(3, 4);
  Scripted proto;
  proto.at(0, tx(0, 1, 0));
  proto.at(0, tx(0, 1, 1));  // node 1 receives twice in one slot
  Engine engine(topo, proto);
  EXPECT_THROW(engine.run_until(1), ProtocolViolation);
}

TEST(Engine, SourceCannotReceive) {
  net::UniformCluster topo(2, 2);
  Scripted proto;
  proto.at(0, tx(1, 0, 0));
  Engine engine(topo, proto);
  EXPECT_THROW(engine.run_until(1), ProtocolViolation);
}

TEST(Engine, SelfSendRejected) {
  net::UniformCluster topo(2, 2);
  Scripted proto;
  proto.at(0, tx(1, 1, 0));
  Engine engine(topo, proto);
  EXPECT_THROW(engine.run_until(1), ProtocolViolation);
}

TEST(Engine, OutOfRangeKeyRejected) {
  net::UniformCluster topo(2, 2);
  Scripted proto;
  proto.at(0, tx(0, 9, 0));
  Engine engine(topo, proto);
  EXPECT_THROW(engine.run_until(1), ProtocolViolation);
}

TEST(Engine, DuplicateDeliveryRejectedByDefault) {
  net::UniformCluster topo(3, 2);
  Scripted proto;
  proto.at(0, tx(0, 1, 0));
  proto.at(1, tx(2, 1, 0));  // same packet again (from another sender)
  Engine engine(topo, proto);
  EXPECT_THROW(engine.run_until(2), ProtocolViolation);
}

TEST(Engine, DuplicateDeliveryCountedWhenAllowed) {
  net::UniformCluster topo(3, 2);
  Scripted proto;
  proto.at(0, tx(0, 1, 0));
  proto.at(1, tx(2, 1, 0));
  Engine engine(topo, proto, EngineOptions{.forbid_duplicates = false});
  engine.run_until(2);
  EXPECT_EQ(engine.stats().duplicate_deliveries, 1);
  EXPECT_EQ(engine.stats().transmissions, 2);
}

TEST(Engine, PhaseTwoHandsEachSlotToObserversThenProtocol) {
  // T_c = 3 with T_i = 1: slot 2's bucket holds a cross-cluster arrival
  // sent in slot 0 ahead of two local ones sent in slot 2, and slot 3's
  // one sent in slot 1 ahead of one sent in slot 3. A retroactive post
  // completes one more slot-2 arrival after slot 2 has run.
  net::ClusteredTopology topo({{.n_receivers = 3}, {.n_receivers = 3}},
                              /*big_d=*/3, /*small_d=*/2, /*t_c=*/3);
  const NodeKey s1 = topo.super_node(1);
  const NodeKey root1 = topo.local_root(1);
  const NodeKey r01 = topo.receiver(0, 1);
  const NodeKey r02 = topo.receiver(0, 2);
  const NodeKey r03 = topo.receiver(0, 3);
  const NodeKey r11 = topo.receiver(1, 1);
  Scripted proto;
  proto.at(0, tx(0, s1, 0));
  proto.at(0, tx(0, r01, 1));
  proto.at(1, tx(0, r11, 5));
  proto.at(2, tx(0, r02, 2));
  proto.at(2, tx(topo.super_node(0), r03, 3));
  proto.at(3, tx(r01, r02, 1));
  Engine engine(topo, proto);
  Recorder first;
  Recorder second;
  engine.add_observer(first);
  engine.add_observer(second);
  engine.run_until(3);
  const Delivery posted{.sent = 0, .received = 2, .tx = tx(0, root1, 4)};
  engine.post(posted);
  engine.run_until(4);

  const std::vector<std::vector<Delivery>> expected = {
      {{.sent = 0, .received = 0, .tx = tx(0, r01, 1)}},
      {{.sent = 0, .received = 2, .tx = tx(0, s1, 0)},
       {.sent = 2, .received = 2, .tx = tx(0, r02, 2)},
       {.sent = 2, .received = 2, .tx = tx(topo.super_node(0), r03, 3)}},
      {posted},
      {{.sent = 1, .received = 3, .tx = tx(0, r11, 5)},
       {.sent = 3, .received = 3, .tx = tx(r01, r02, 1)}}};
  EXPECT_EQ(first.spans, expected);
  EXPECT_EQ(second.spans, expected);
  std::vector<Delivery> in_order;
  for (const auto& span : expected) {
    for (const Delivery& d : span) {
      in_order.push_back({.sent = -1, .received = d.received, .tx = d.tx});
    }
  }
  EXPECT_EQ(proto.delivered, in_order);
  EXPECT_EQ(engine.stats().deliveries, 7);
}

TEST(Engine, ReceiveViolationThrowsBeforeObserversSeeTheSlot) {
  // Slot 1's third arrival is r03's second in the slot: the engine throws
  // before any observer or the protocol sees slot 1's first two.
  net::ClusteredTopology topo({{.n_receivers = 3}}, /*big_d=*/3,
                              /*small_d=*/2, /*t_c=*/3);
  const NodeKey r01 = topo.receiver(0, 1);
  const NodeKey r02 = topo.receiver(0, 2);
  const NodeKey r03 = topo.receiver(0, 3);
  Scripted proto;
  proto.at(0, tx(0, r01, 0));
  proto.at(1, tx(0, r02, 1));
  proto.at(1, tx(0, r03, 2));
  proto.at(1, tx(topo.super_node(0), r03, 3));
  Engine engine(topo, proto);
  Recorder rec;
  engine.add_observer(rec);
  engine.run_until(1);
  EXPECT_THROW(engine.run_until(2), ProtocolViolation);
  ASSERT_EQ(rec.spans.size(), 1u);
  EXPECT_EQ(rec.spans[0].size(), 1u);
  EXPECT_EQ(proto.delivered.size(), 1u);
}

TEST(Engine, CapacityIsPerSlotNotCumulative) {
  net::UniformCluster topo(3, 1);
  Scripted proto;
  for (Slot t = 0; t < 10; ++t) {
    proto.at(t, tx(0, 1, t));  // one send per slot for 10 slots: fine
  }
  Engine engine(topo, proto);
  EXPECT_NO_THROW(engine.run_until(10));
  EXPECT_EQ(engine.stats().transmissions, 10);
}

TEST(Engine, RunUntilIsResumable) {
  net::UniformCluster topo(2, 1);
  Scripted proto;
  proto.at(3, tx(0, 1, 0));
  Engine engine(topo, proto);
  engine.run_until(2);
  EXPECT_EQ(engine.now(), 2);
  engine.run_until(5);
  EXPECT_EQ(engine.now(), 5);
  EXPECT_EQ(proto.delivered.size(), 1u);
}

/// Loss model for tests: erases transmissions of the listed packet ids.
class DropListed final : public loss::LossModel {
 public:
  explicit DropListed(std::vector<PacketId> ids) : ids_(std::move(ids)) {}
  bool erased(Slot, const Tx& t) override {
    return std::find(ids_.begin(), ids_.end(), t.packet) != ids_.end();
  }

 private:
  std::vector<PacketId> ids_;
};

TEST(Engine, LossModelDropsAreCountedAndReported) {
  net::UniformCluster topo(3, 2);
  Scripted proto;
  proto.at(0, tx(0, 1, 0));
  proto.at(0, tx(0, 2, 1));
  proto.at(1, tx(1, 2, 2));
  DropListed model({1});
  Engine engine(topo, proto);
  engine.set_loss_model(&model);
  Trace trace;
  engine.add_observer(trace);
  engine.run_until(3);

  EXPECT_EQ(engine.stats().transmissions, 3);  // the erased send still counts
  EXPECT_EQ(engine.stats().drops, 1);
  EXPECT_EQ(proto.delivered.size(), 2u);  // packet 1 never arrived
  EXPECT_EQ(trace.all().size(), 2u);
  ASSERT_EQ(trace.drops().size(), 1u);
  EXPECT_EQ(trace.drops()[0].tx.packet, 1);
  EXPECT_EQ(trace.drops()[0].sent, 0);
  EXPECT_EQ(trace.drops()[0].would_arrive, 0);
}

TEST(Engine, DroppedPacketCanBeSentAgain) {
  // An erased transmission never reached the duplicate filter: resending the
  // same (node, packet) later must be legal.
  net::UniformCluster topo(3, 2);
  Scripted proto;
  proto.at(0, tx(0, 1, 0));
  proto.at(1, tx(0, 1, 0));
  Engine engine(topo, proto);
  DropListed first_only({0});
  engine.set_loss_model(&first_only);
  engine.run_until(1);
  engine.set_loss_model(nullptr);
  EXPECT_NO_THROW(engine.run_until(2));
  EXPECT_EQ(engine.stats().drops, 1);
  EXPECT_EQ(proto.delivered.size(), 1u);
}

TEST(Engine, RetransmitFlagIsCounted) {
  net::UniformCluster topo(3, 2);
  Scripted proto;
  Tx repair = tx(0, 1, 0);
  repair.retransmit = true;
  proto.at(0, repair);
  proto.at(0, tx(0, 2, 1));
  Engine engine(topo, proto);
  engine.run_until(1);
  EXPECT_EQ(engine.stats().transmissions, 2);
  EXPECT_EQ(engine.stats().retransmissions, 1);
}

TEST(Engine, RingGrowsToCoverLargeLatencies) {
  // T_c = 50 exceeds the initial ring size; the in-flight ring must grow and
  // still deliver at the exact arrival slot.
  net::ClusteredTopology topo({{.n_receivers = 2}, {.n_receivers = 2}},
                              /*big_d=*/3, /*small_d=*/2, /*t_c=*/50);
  Scripted proto;
  proto.at(0, tx(topo.super_node(0), topo.super_node(1), 7));
  proto.at(3, tx(0, topo.receiver(0, 1), 8));  // unit-latency send interleaved
  Engine engine(topo, proto);
  Recorder rec;
  engine.add_observer(rec);
  engine.run_until(49);
  ASSERT_EQ(rec.all.size(), 1u);
  EXPECT_EQ(rec.all[0].tx.packet, 8);
  engine.run_until(50);
  ASSERT_EQ(rec.all.size(), 2u);
  EXPECT_EQ(rec.all[1].tx.packet, 7);
  EXPECT_EQ(rec.all[1].received, 49);
}

/// Topology with an explicit per-pair latency matrix and generous
/// capacities, for exercising the in-flight ring's sizing rules.
class MatrixTopology final : public net::Topology {
 public:
  explicit MatrixTopology(NodeKey size) : size_(size) {
    latency_.assign(static_cast<std::size_t>(size),
                    std::vector<Slot>(static_cast<std::size_t>(size), 1));
  }
  void set_latency(NodeKey from, NodeKey to, Slot l) {
    latency_[static_cast<std::size_t>(from)][static_cast<std::size_t>(to)] = l;
  }
  NodeKey size() const override { return size_; }
  Slot latency(NodeKey from, NodeKey to) const override {
    return latency_[static_cast<std::size_t>(from)]
                   [static_cast<std::size_t>(to)];
  }
  int send_capacity(NodeKey) const override { return 8; }
  int recv_capacity(NodeKey) const override { return 8; }

 private:
  NodeKey size_;
  std::vector<std::vector<Slot>> latency_;
};

TEST(Engine, LatencyExactlyEqualToRingSizeDeliversOnTime) {
  // The initial ring holds 8 buckets. A latency of exactly 8 must NOT need a
  // growth: in-flight arrivals span 8 distinct slots, which map to 8
  // distinct buckets (the off-by-one guard on the `latency > ring size`
  // growth trigger). A unit-latency delivery sharing the arrival slot and a
  // later reuse of the same bucket must all land at their exact slots.
  MatrixTopology topo(4);
  topo.set_latency(0, 1, 8);
  Scripted proto;
  proto.at(0, tx(0, 1, 0));   // arrives slot 7, bucket 7
  proto.at(7, tx(0, 2, 1));   // unit latency: arrives slot 7, same bucket
  proto.at(8, tx(0, 1, 2));   // latency 8 again: arrives slot 15, bucket 7
  Engine engine(topo, proto);
  Recorder rec;
  engine.add_observer(rec);
  engine.run_until(7);
  EXPECT_TRUE(rec.all.empty());
  engine.run_until(8);
  ASSERT_EQ(rec.all.size(), 2u);
  EXPECT_EQ(rec.all[0].tx.packet, 0);
  EXPECT_EQ(rec.all[0].received, 7);
  EXPECT_EQ(rec.all[1].tx.packet, 1);
  EXPECT_EQ(rec.all[1].received, 7);
  engine.run_until(16);
  ASSERT_EQ(rec.all.size(), 3u);
  EXPECT_EQ(rec.all[2].tx.packet, 2);
  EXPECT_EQ(rec.all[2].received, 15);
}

TEST(Engine, RingGrowsMidRunWithInFlightDeliveries) {
  // Two growths (8 -> 32 -> 64) while earlier deliveries are still in
  // flight: every rebucketed delivery must still arrive at its exact slot.
  MatrixTopology topo(4);
  topo.set_latency(0, 1, 6);
  topo.set_latency(0, 2, 20);
  topo.set_latency(0, 3, 40);
  Scripted proto;
  proto.at(0, tx(0, 1, 0));  // arrives slot 5 (in flight through both grows)
  proto.at(2, tx(0, 2, 1));  // latency 20: grow to 32, arrives slot 21
  proto.at(3, tx(0, 3, 2));  // latency 40: grow to 64, arrives slot 42
  Engine engine(topo, proto);
  Recorder rec;
  engine.add_observer(rec);
  engine.run_until(43);
  ASSERT_EQ(rec.all.size(), 3u);
  EXPECT_EQ(rec.all[0].tx.packet, 0);
  EXPECT_EQ(rec.all[0].received, 5);
  EXPECT_EQ(rec.all[1].tx.packet, 1);
  EXPECT_EQ(rec.all[1].received, 21);
  EXPECT_EQ(rec.all[2].tx.packet, 2);
  EXPECT_EQ(rec.all[2].received, 42);
}

TEST(Engine, DuplicateDetectionSurvivesBitmapGrowth) {
  // Far-apart stream ids force the per-node seen-bitmap to grow; detection
  // must hold across the growth and stay per-node.
  net::UniformCluster topo(3, 4);
  Scripted proto;
  proto.at(0, tx(0, 1, 0));
  proto.at(1, tx(0, 1, 1000000));
  proto.at(2, tx(0, 2, 1000000));  // same packet, other node: fine
  proto.at(3, tx(2, 1, 1000000));  // duplicate at node 1
  Engine engine(topo, proto);
  engine.run_until(3);
  EXPECT_EQ(engine.stats().duplicate_deliveries, 0);
  EXPECT_THROW(engine.run_until(4), ProtocolViolation);
}

TEST(Engine, ControlIdDuplicatesAreDetected) {
  // Ids at or above kControlIdBase use the sparse set, with the
  // non-overlapping (node << 40 | packet) key: distinct (node, packet)
  // pairs can never alias.
  net::UniformCluster topo(3, 4);
  const PacketId base = kControlIdBase;
  Scripted proto;
  proto.at(0, tx(0, 1, base + 5));
  proto.at(1, tx(0, 2, base + 5));  // other node: fine
  proto.at(2, tx(2, 1, base + 5));  // duplicate at node 1
  Engine engine(topo, proto);
  engine.run_until(2);
  EXPECT_EQ(engine.stats().duplicate_deliveries, 0);
  EXPECT_THROW(engine.run_until(3), ProtocolViolation);
}

TEST(Engine, DeliveriesAreCounted) {
  net::UniformCluster topo(3, 2);
  Scripted proto;
  proto.at(0, tx(0, 1, 0));
  proto.at(0, tx(0, 2, 1));
  proto.at(1, tx(1, 2, 0));
  DropListed model({1});
  Engine engine(topo, proto);
  engine.set_loss_model(&model);
  engine.run_until(2);
  EXPECT_EQ(engine.stats().transmissions, 3);
  EXPECT_EQ(engine.stats().drops, 1);
  EXPECT_EQ(engine.stats().deliveries, 2);
}

TEST(Trace, QueriesBySenderReceiverAndSlot) {
  Trace trace;
  trace.on_delivery(Delivery{.sent = 0, .received = 0, .tx = tx(0, 1, 5)});
  trace.on_delivery(Delivery{.sent = 1, .received = 1, .tx = tx(1, 2, 5)});
  trace.on_delivery(Delivery{.sent = 1, .received = 1, .tx = tx(0, 3, 6)});
  EXPECT_EQ(trace.all().size(), 3u);
  EXPECT_EQ(trace.received_by(2).size(), 1u);
  EXPECT_EQ(trace.sent_by(0).size(), 2u);
  EXPECT_EQ(trace.sent_in(1).size(), 2u);
  EXPECT_EQ(trace.sent_in(7).size(), 0u);
}

}  // namespace
}  // namespace streamcast::sim
