// Unit tests of the InvariantAuditor: every violation kind is produced from
// synthetic observer events, and an injected over-send on a real engine run
// (with engine enforcement off) is caught with a precise AuditReport.
#include <gtest/gtest.h>

#include "src/audit/auditor.hpp"
#include "src/baseline/chain.hpp"
#include "src/net/topology.hpp"
#include "src/sim/engine.hpp"
#include "tests/support/injector.hpp"

namespace streamcast {
namespace {

using audit::AuditReport;
using audit::InvariantAuditor;
using audit::ViolationKind;
using sim::Delivery;
using sim::Drop;
using sim::NodeKey;
using sim::PacketId;
using sim::Slot;
using sim::Tx;

Delivery make_delivery(NodeKey from, NodeKey to, PacketId p, Slot sent,
                       Slot received) {
  return Delivery{.sent = sent,
                  .received = received,
                  .tx = Tx{.from = from, .to = to, .packet = p}};
}

bool has_kind(const AuditReport& r, ViolationKind kind) {
  for (const auto& v : r.violations) {
    if (v.kind == kind) return true;
  }
  return false;
}

TEST(Auditor, CleanSyntheticStreamPasses) {
  net::UniformCluster topo(3, 1);
  InvariantAuditor auditor(topo, {.window = 2, .require_complete = true});
  // S streams two packets down a 0 -> 1 -> 2 -> 3 chain.
  for (PacketId p = 0; p < 2; ++p) {
    for (NodeKey x = 0; x < 3; ++x) {
      auditor.on_delivery(make_delivery(x, x + 1, p, p + x, p + x));
    }
  }
  const AuditReport& r = auditor.finalize();
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.deliveries_audited, 6);
}

TEST(Auditor, RecvCapacityViolationDetected) {
  net::UniformCluster topo(3, 2);
  InvariantAuditor auditor(topo);
  auditor.on_delivery(make_delivery(0, 1, 0, 4, 4));
  auditor.on_delivery(make_delivery(2, 1, 1, 4, 4));  // second rx in slot 4
  const AuditReport& r = auditor.finalize();
  ASSERT_TRUE(has_kind(r, ViolationKind::kRecvCapacity)) << r.to_string();
  const auto& v = r.violations.front();
  EXPECT_EQ(v.slot, 4);
  EXPECT_EQ(v.node, 1);
  EXPECT_EQ(v.expected, 1);
  EXPECT_EQ(v.actual, 2);
}

TEST(Auditor, SendCapacityCountsDropsToo) {
  net::UniformCluster topo(3, 2);
  InvariantAuditor auditor(topo);
  // Node 1 (capacity 1) sends one delivered and one erased packet in slot 7:
  // the drop still consumed its upload slot.
  auditor.on_drop(Drop{.sent = 7,
                       .would_arrive = 7,
                       .tx = Tx{.from = 1, .to = 3, .packet = 5}});
  auditor.on_delivery(make_delivery(1, 2, 4, 7, 7));
  const AuditReport& r = auditor.finalize();
  ASSERT_TRUE(has_kind(r, ViolationKind::kSendCapacity)) << r.to_string();
  EXPECT_EQ(r.drops_audited, 1);
  const auto& v = r.violations.front();
  EXPECT_EQ(v.slot, 7);
  EXPECT_EQ(v.node, 1);
  EXPECT_EQ(v.expected, 1);
  EXPECT_EQ(v.actual, 2);
}

TEST(Auditor, SourceCapacityAllowsD) {
  net::UniformCluster topo(8, 3);  // source capacity d = 3
  InvariantAuditor auditor(topo);
  for (NodeKey child = 1; child <= 3; ++child) {
    auditor.on_delivery(make_delivery(0, child, child - 1, 0, 0));
  }
  EXPECT_TRUE(auditor.finalize().ok());
}

TEST(Auditor, LatencyPacingViolationDetected) {
  net::UniformCluster topo(3, 1, /*t_i=*/4);
  InvariantAuditor auditor(topo);
  // Link latency is 4 slots but this packet "arrived" after 2.
  auditor.on_delivery(make_delivery(1, 2, 0, 10, 11));
  const AuditReport& r = auditor.finalize();
  ASSERT_TRUE(has_kind(r, ViolationKind::kLatencyMismatch)) << r.to_string();
  const auto& v = r.violations.front();
  EXPECT_EQ(v.expected, 4);
  EXPECT_EQ(v.actual, 2);
  EXPECT_EQ(v.node, 2);
}

TEST(Auditor, DuplicateDeliveryDetectedAndRelaxable) {
  net::UniformCluster topo(3, 2);
  InvariantAuditor auditor(topo);
  auditor.on_delivery(make_delivery(0, 1, 0, 0, 0));
  auditor.on_delivery(make_delivery(2, 1, 0, 3, 3));
  EXPECT_TRUE(has_kind(auditor.finalize(), ViolationKind::kDuplicateDelivery));
}

TEST(Auditor, ScheduleCollisionOnOneLinkDetected) {
  net::UniformCluster topo(3, 3);
  InvariantAuditor auditor(topo);
  // Identical (from, to, packet) queued twice in slot 2; one copy erased.
  auditor.on_drop(Drop{.sent = 2,
                       .would_arrive = 2,
                       .tx = Tx{.from = 0, .to = 1, .packet = 9}});
  auditor.on_delivery(make_delivery(0, 1, 9, 2, 2));
  EXPECT_TRUE(
      has_kind(auditor.finalize(), ViolationKind::kScheduleCollision));
}

TEST(Auditor, DelayBoundViolationDetected) {
  net::UniformCluster topo(1, 1);
  InvariantAuditor auditor(
      topo, {.window = 2, .delay_bound = 1, .require_complete = true});
  auditor.on_delivery(make_delivery(0, 1, 0, 0, 0));
  auditor.on_delivery(make_delivery(0, 1, 1, 5, 5));  // a(1) = 4 > 1
  const AuditReport& r = auditor.finalize();
  ASSERT_TRUE(has_kind(r, ViolationKind::kDelayBound)) << r.to_string();
  EXPECT_EQ(r.violations.front().expected, 1);
  EXPECT_EQ(r.violations.front().actual, 4);
}

TEST(Auditor, BufferBoundViolationDetected) {
  net::UniformCluster topo(1, 4);
  // Packets arrive in reverse order, one per slot: by the time packet 0
  // lands (a = 3), all four sit in the buffer at once.
  InvariantAuditor auditor(
      topo, {.window = 4, .buffer_bound = 2, .require_complete = true});
  for (PacketId p = 0; p < 4; ++p) {
    auditor.on_delivery(make_delivery(0, 1, 3 - p, p, p));
  }
  const AuditReport& r = auditor.finalize();
  ASSERT_TRUE(has_kind(r, ViolationKind::kBufferBound)) << r.to_string();
  EXPECT_EQ(r.violations.front().actual, 4);
  EXPECT_EQ(r.violations.front().expected, 2);
}

TEST(Auditor, GapBacklogSlackCoversRecoveryPileup) {
  net::UniformCluster topo(1, 4);
  // Same reversed arrivals, but as a lossy run: the backlog of 4 is covered
  // by the a = 3 playback delay the open gap inflicted (allowed 2 + 3).
  InvariantAuditor auditor(topo, {.window = 4,
                                  .buffer_bound = 2,
                                  .gap_backlog_slack = true,
                                  .require_complete = true});
  for (PacketId p = 0; p < 4; ++p) {
    auditor.on_delivery(make_delivery(0, 1, 3 - p, p, p));
  }
  EXPECT_TRUE(auditor.finalize().ok());
}

TEST(Auditor, IncompleteWindowReportedOnlyWhenRequired) {
  net::UniformCluster topo(2, 1);
  {
    InvariantAuditor auditor(topo, {.window = 2, .require_complete = true});
    auditor.on_delivery(make_delivery(0, 1, 0, 0, 0));
    const AuditReport& r = auditor.finalize();
    // Node 1 got 1 of 2 packets; node 2 got none.
    EXPECT_EQ(r.violations.size(), 2u);
    EXPECT_TRUE(has_kind(r, ViolationKind::kIncompleteWindow));
  }
  {
    InvariantAuditor auditor(topo, {.window = 2, .require_complete = false});
    auditor.on_delivery(make_delivery(0, 1, 0, 0, 0));
    EXPECT_TRUE(auditor.finalize().ok());
  }
}

TEST(Auditor, ViolationCapSuppressesButCounts) {
  net::UniformCluster topo(3, 2);
  InvariantAuditor auditor(topo);
  const int deliveries = static_cast<int>(audit::kMaxViolations) + 3;
  for (int i = 0; i < deliveries; ++i) {  // all but the first duplicates
    auditor.on_delivery(make_delivery(0, 1, 0, i, i));
  }
  const AuditReport& r = auditor.finalize();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.violations.size(), audit::kMaxViolations);
  EXPECT_EQ(r.suppressed, 2);
}

TEST(Auditor, ReportTextNamesKindSlotAndNode) {
  net::UniformCluster topo(3, 2);
  InvariantAuditor auditor(topo);
  auditor.on_delivery(make_delivery(0, 1, 0, 4, 4));
  auditor.on_delivery(make_delivery(2, 1, 1, 4, 4));
  const std::string text = auditor.finalize().to_string();
  EXPECT_NE(text.find("recv-capacity"), std::string::npos);
  EXPECT_NE(text.find("slot 4"), std::string::npos);
  EXPECT_NE(text.find("node 1"), std::string::npos);
  EXPECT_THROW(auditor.require_clean(), sim::ProtocolViolation);
}

// --- end-to-end: injected fault, engine enforcement off ---------------------

TEST(Auditor, InjectedOverSendCaughtOnRealEngine) {
  const NodeKey n = 5;
  net::UniformCluster topo(n, 1);
  baseline::ChainProtocol chain(n);
  audit::OverSendInjector inject(chain, /*at=*/2);
  InvariantAuditor auditor(topo, {.window = 4});
  sim::Engine engine(topo, inject, {.enforce = false});
  engine.add_observer(auditor);
  engine.run_until(12);
  ASSERT_TRUE(inject.fired());
  const AuditReport& r = auditor.finalize();
  ASSERT_FALSE(r.ok());
  ASSERT_TRUE(has_kind(r, ViolationKind::kSendCapacity)) << r.to_string();
  for (const auto& v : r.violations) {
    if (v.kind != ViolationKind::kSendCapacity) continue;
    EXPECT_EQ(v.slot, 2);
    EXPECT_EQ(v.node, 0);  // slot 2: the source's send to node 1 is first
    EXPECT_EQ(v.expected, 1);
    EXPECT_EQ(v.actual, 2);
    break;
  }
  // The byte-identical duplicate also collides on the link and arrives as a
  // duplicate delivery.
  EXPECT_TRUE(has_kind(r, ViolationKind::kScheduleCollision));
  EXPECT_TRUE(has_kind(r, ViolationKind::kDuplicateDelivery));
}

TEST(Auditor, SameRunWithoutInjectionIsClean) {
  const NodeKey n = 5;
  net::UniformCluster topo(n, 1);
  baseline::ChainProtocol chain(n);
  InvariantAuditor auditor(
      topo, {.window = 4,
             .delay_bound = baseline::chain_worst_delay(n),
             .buffer_bound = 1,
             .require_complete = true});
  sim::Engine engine(topo, chain);
  engine.add_observer(auditor);
  engine.run_until(16);
  const AuditReport& r = auditor.finalize();
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_GT(r.deliveries_audited, 0);
}

}  // namespace
}  // namespace streamcast
