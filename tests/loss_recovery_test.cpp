// Recovery subsystem tests: sequence tracking, NACK repair, FEC decode,
// the zero-loss bit-identical regression, the gap-free-prefix invariant
// under heavy loss, and the playback-continuity metrics.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/session.hpp"
#include "src/loss/model.hpp"
#include "src/loss/recovery.hpp"
#include "src/metrics/continuity.hpp"
#include "src/net/topology.hpp"
#include "src/sim/engine.hpp"
#include "src/util/prng.hpp"

namespace streamcast {
namespace {

using loss::RecoveryMode;
using loss::RecoveryOptions;
using loss::RecoveryProtocol;
using loss::SequenceTracker;
using sim::Delivery;
using sim::NodeKey;
using sim::PacketId;
using sim::Slot;
using sim::Tx;

Tx tx(NodeKey from, NodeKey to, PacketId p) {
  return Tx{.from = from, .to = to, .packet = p, .tag = 0};
}

/// Scripted inner protocol: replays (slot, Tx) and records deliveries.
class Scripted final : public sim::Protocol {
 public:
  void at(Slot t, Tx t_x) { script_.emplace_back(t, t_x); }

  void transmit(Slot t, std::vector<Tx>& out) override {
    for (const auto& [slot, item] : script_) {
      if (slot == t) out.push_back(item);
    }
  }
  void deliver(Slot t, const Tx& t_x) override {
    delivered.push_back(Delivery{.sent = -1, .received = t, .tx = t_x});
  }

  std::vector<Delivery> delivered;

 private:
  std::vector<std::pair<Slot, Tx>> script_;
};

/// Deterministic loss: erases the nth transmission of each listed packet id.
class DropSpecific final : public loss::LossModel {
 public:
  /// Erase the first `times` transmissions carrying packet id `p`.
  void drop(PacketId p, int times = 1) { budget_[p] = times; }

  bool erased(Slot, const Tx& t_x) override {
    auto it = budget_.find(t_x.packet);
    if (it == budget_.end() || it->second == 0) return false;
    --it->second;
    return true;
  }

 private:
  std::map<PacketId, int> budget_;
};

TEST(SequenceTracker, PrefixAndAhead) {
  SequenceTracker tr;
  EXPECT_EQ(tr.gap_free_prefix(), 0);
  tr.mark(0);
  tr.mark(1);
  EXPECT_EQ(tr.gap_free_prefix(), 2);
  tr.mark(3);
  tr.mark(5);
  EXPECT_EQ(tr.gap_free_prefix(), 2);
  EXPECT_TRUE(tr.has(3));
  EXPECT_FALSE(tr.has(2));
  // Ascending walk of the ids held ahead of the prefix: 3, then 5.
  EXPECT_EQ(tr.next_ahead(0), 3);
  EXPECT_EQ(tr.next_ahead(4), 5);
  EXPECT_EQ(tr.next_ahead(6), sim::kNoPacket);
  EXPECT_EQ(tr.highest_held(), 5);
  tr.mark(2);  // closes the gap; prefix swallows 3, stops at 4
  EXPECT_EQ(tr.gap_free_prefix(), 4);
  tr.mark(4);
  EXPECT_EQ(tr.gap_free_prefix(), 6);
  EXPECT_TRUE(tr.ahead_empty());
  EXPECT_EQ(tr.highest_held(), 5);
  tr.mark(1);  // idempotent below the prefix
  EXPECT_EQ(tr.gap_free_prefix(), 6);
}

/// Reference model of a tracker: the gap-free prefix plus a std::set of
/// the ids held ahead of it.
struct TrackerModel {
  PacketId next = 0;
  std::set<PacketId> ahead;

  void mark(PacketId p) {
    if (p < next) return;
    ahead.insert(p);
    swallow();
  }
  void start_at(PacketId p) {
    if (p <= next) return;
    next = p;
    ahead.erase(ahead.begin(), ahead.lower_bound(next));
    swallow();
  }
  void swallow() {
    while (!ahead.empty() && *ahead.begin() == next) {
      ahead.erase(ahead.begin());
      ++next;
    }
  }
};

/// Asserts that every query of `tr` agrees with the model.
void expect_matches(const SequenceTracker& tr, const TrackerModel& model,
                    PacketId probe_end, const std::string& where) {
  ASSERT_EQ(tr.gap_free_prefix(), model.next) << where;
  ASSERT_EQ(tr.ahead_empty(), model.ahead.empty()) << where;
  const PacketId highest =
      model.ahead.empty() ? model.next - 1 : *model.ahead.rbegin();
  ASSERT_EQ(tr.highest_held(), highest) << where;
  std::vector<PacketId> walk;
  for (PacketId a = tr.next_ahead(0); a != sim::kNoPacket;
       a = tr.next_ahead(a + 1)) {
    walk.push_back(a);
  }
  ASSERT_EQ(walk, std::vector<PacketId>(model.ahead.begin(),
                                        model.ahead.end()))
      << where;
  for (PacketId p = 0; p < probe_end; ++p) {
    ASSERT_EQ(tr.has(p), p < model.next || model.ahead.contains(p))
        << where << " id " << p;
  }
}

TEST(SequenceTracker, MatchesSetModelUnderRandomMarksAndSeats) {
  util::Prng prng(0x7eac3e);
  for (int round = 0; round < 24; ++round) {
    SequenceTracker tr;
    TrackerModel model;
    // Odd rounds stretch ids thousands past a 256-packet window, as a drain
    // does; even rounds keep them dense so gaps close often.
    const PacketId window = 256;
    const PacketId reach = round % 2 == 0 ? 64 : 6000;
    for (int step = 0; step < 500; ++step) {
      const std::uint64_t roll = prng.below(100);
      const PacketId base = model.next;
      if (roll < 4) {
        const auto p = base + static_cast<PacketId>(prng.below(
                                  static_cast<std::uint64_t>(reach)));
        tr.start_at(p);
        model.start_at(p);
      } else if (roll < 40) {
        // Close the oldest gap, as a repair or a decode would.
        tr.mark(base);
        model.mark(base);
      } else {
        const auto p =
            static_cast<PacketId>(prng.below(static_cast<std::uint64_t>(
                base + std::min(window, reach) + reach)));
        tr.mark(p);
        model.mark(p);
      }
      expect_matches(tr, model, model.next + reach + window + 64,
                     "round " + std::to_string(round) + " step " +
                         std::to_string(step));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(RecoveryProtocol, NackRepairsSingleDropInOrder) {
  net::UniformCluster base(2, 1);
  net::ProvisionedTopology topo(base, 1, 1);
  Scripted inner;
  for (Slot t = 0; t < 5; ++t) inner.at(t, tx(0, 1, t));
  RecoveryProtocol recovery(topo, inner,
                            RecoveryOptions{.mode = RecoveryMode::kNack});
  DropSpecific model;
  model.drop(1);
  sim::Engine engine(topo, recovery);
  engine.set_loss_model(&model);
  engine.add_observer(recovery);
  engine.run_until(12);

  EXPECT_EQ(engine.stats().drops, 1);
  EXPECT_EQ(engine.stats().retransmissions, 1);
  EXPECT_EQ(recovery.stats().retransmissions, 1);
  EXPECT_EQ(recovery.stats().nacks, 1);
  EXPECT_EQ(recovery.gap_free_prefix(1), 5);
  EXPECT_TRUE(recovery.all_gap_free(1, 1, 5));
  // The wrapped protocol saw its lossless delivery order.
  ASSERT_EQ(inner.delivered.size(), 5u);
  for (PacketId p = 0; p < 5; ++p) {
    EXPECT_EQ(inner.delivered[static_cast<std::size_t>(p)].tx.packet, p);
  }
}

TEST(RecoveryProtocol, PlannedArrivalsCountPerSlotAndNodeAcrossLatency) {
  // Repairs over 3-slot links plan arrivals up to two slots ahead; each
  // (arrival slot, node) pair keeps its own count until the slot passes.
  net::UniformCluster base(2, 1, /*t_i=*/3);
  net::ProvisionedTopology topo(base, 1, 1);  // receive capacity 2
  Scripted inner;
  RecoveryProtocol recovery(topo, inner,
                            RecoveryOptions{.mode = RecoveryMode::kNack});
  std::vector<Tx> out;
  recovery.transmit(0, out);
  recovery.note_planned_arrival(2, 1);
  recovery.note_planned_arrival(2, 1);
  EXPECT_FALSE(recovery.recv_headroom(2, 1));
  EXPECT_TRUE(recovery.recv_headroom(1, 1));  // another arrival slot
  EXPECT_TRUE(recovery.recv_headroom(2, 2));  // another node
  recovery.note_planned_arrival(1, 2);
  // Later slots still see the arrivals planned for slots not yet passed,
  // including after the bookkeeping widens to a longer span.
  recovery.transmit(1, out);
  EXPECT_FALSE(recovery.recv_headroom(2, 1));
  recovery.note_planned_arrival(1, 2);
  EXPECT_FALSE(recovery.recv_headroom(1, 2));
  recovery.note_planned_arrival(9, 1);
  EXPECT_FALSE(recovery.recv_headroom(2, 1));
  EXPECT_FALSE(recovery.recv_headroom(1, 2));
  EXPECT_TRUE(recovery.recv_headroom(9, 1));
  // Once slot 2 has passed, its arrivals count for no later slot, even
  // one that reuses its bookkeeping (18 = 2 + 16 slots).
  recovery.transmit(6, out);
  EXPECT_TRUE(recovery.recv_headroom(18, 1));
  recovery.note_planned_arrival(18, 1);
  EXPECT_TRUE(recovery.recv_headroom(18, 1));
  recovery.note_planned_arrival(9, 1);
  EXPECT_FALSE(recovery.recv_headroom(9, 1));
  EXPECT_TRUE(out.empty());
}

TEST(RecoveryProtocol, NackRepairsOverMultiSlotLinksInOrder) {
  net::UniformCluster base(2, 1, /*t_i=*/3);
  net::ProvisionedTopology topo(base, 1, 1);
  Scripted inner;
  for (Slot t = 0; t < 10; ++t) inner.at(t, tx(0, 1, t));
  RecoveryProtocol recovery(topo, inner,
                            RecoveryOptions{.mode = RecoveryMode::kNack});
  DropSpecific model;
  model.drop(2);
  model.drop(3);
  model.drop(4, /*times=*/2);  // the data packet AND its first repair
  sim::Engine engine(topo, recovery);
  engine.set_loss_model(&model);
  engine.add_observer(recovery);
  engine.run_until(40);  // throws on any capacity overrun

  EXPECT_EQ(engine.stats().drops, 4);
  EXPECT_EQ(recovery.stats().retransmissions, 4);
  EXPECT_EQ(recovery.gap_free_prefix(1), 10);
  ASSERT_EQ(inner.delivered.size(), 10u);
  for (PacketId p = 0; p < 10; ++p) {
    EXPECT_EQ(inner.delivered[static_cast<std::size_t>(p)].tx.packet, p);
  }
}

TEST(RecoveryProtocol, LostRepairIsRenacked) {
  net::UniformCluster base(2, 1);
  net::ProvisionedTopology topo(base, 1, 1);
  Scripted inner;
  for (Slot t = 0; t < 5; ++t) inner.at(t, tx(0, 1, t));
  RecoveryProtocol recovery(topo, inner,
                            RecoveryOptions{.mode = RecoveryMode::kNack});
  DropSpecific model;
  model.drop(1, /*times=*/2);  // the data packet AND its first repair
  sim::Engine engine(topo, recovery);
  engine.set_loss_model(&model);
  engine.add_observer(recovery);
  engine.run_until(20);

  EXPECT_EQ(engine.stats().drops, 2);
  EXPECT_EQ(recovery.stats().retransmissions, 2);
  EXPECT_EQ(recovery.stats().nacks, 2);
  EXPECT_EQ(recovery.gap_free_prefix(1), 5);
}

TEST(RecoveryProtocol, FecDecodesSingleLossWithoutRoundTrip) {
  net::UniformCluster base(2, 1);
  net::ProvisionedTopology topo(base, 1, 1);
  Scripted inner;
  for (Slot t = 0; t < 8; ++t) inner.at(t, tx(0, 1, t));
  RecoveryProtocol recovery(
      topo, inner,
      RecoveryOptions{.mode = RecoveryMode::kFec, .fec_window = 4});
  DropSpecific model;
  model.drop(1);
  sim::Engine engine(topo, recovery);
  engine.set_loss_model(&model);
  engine.add_observer(recovery);
  engine.run_until(12);

  EXPECT_EQ(recovery.stats().fec_decodes, 1);
  EXPECT_EQ(recovery.stats().parity_transmissions, 2);  // two full windows
  EXPECT_EQ(recovery.stats().retransmissions, 0);
  EXPECT_EQ(recovery.gap_free_prefix(1), 8);
  // In-order hand-off held packets 2, 3 until the decode closed the gap.
  ASSERT_EQ(inner.delivered.size(), 8u);
  for (PacketId p = 0; p < 8; ++p) {
    EXPECT_EQ(inner.delivered[static_cast<std::size_t>(p)].tx.packet, p);
  }
}

TEST(RecoveryProtocol, LostParityLeavesWindowUnprotected) {
  net::UniformCluster base(2, 1);
  net::ProvisionedTopology topo(base, 1, 1);
  Scripted inner;
  for (Slot t = 0; t < 4; ++t) inner.at(t, tx(0, 1, t));
  RecoveryProtocol recovery(
      topo, inner,
      RecoveryOptions{.mode = RecoveryMode::kFec, .fec_window = 4});
  DropSpecific model;
  model.drop(1);
  model.drop(sim::kControlIdBase);  // the parity of window [0, 4)
  sim::Engine engine(topo, recovery);
  engine.set_loss_model(&model);
  engine.add_observer(recovery);
  engine.run_until(12);

  EXPECT_EQ(recovery.stats().fec_decodes, 0);
  EXPECT_EQ(recovery.gap_free_prefix(1), 1);  // the gap never closes
}

TEST(RecoveryProtocol, ZeroLossSchedulePassesThroughUntouched) {
  net::UniformCluster base(2, 1);
  net::ProvisionedTopology topo(base, 1, 1);
  Scripted inner;
  for (Slot t = 0; t < 6; ++t) inner.at(t, tx(0, 1, t));
  RecoveryProtocol recovery(topo, inner,
                            RecoveryOptions{.mode = RecoveryMode::kNack});
  sim::Engine engine(topo, recovery);
  engine.add_observer(recovery);
  engine.run_until(8);

  const auto& rs = recovery.stats();
  EXPECT_EQ(rs.data_transmissions, 6);
  EXPECT_EQ(rs.retransmissions, 0);
  EXPECT_EQ(rs.suppressed_causal, 0);
  EXPECT_EQ(rs.suppressed_redundant, 0);
  EXPECT_EQ(rs.nacks, 0);
  ASSERT_EQ(inner.delivered.size(), 6u);
  for (PacketId p = 0; p < 6; ++p) {
    EXPECT_EQ(inner.delivered[static_cast<std::size_t>(p)].tx.packet, p);
    EXPECT_EQ(inner.delivered[static_cast<std::size_t>(p)].received, p);
  }
}

// --- session-level: the zero-loss bit-identical regression ----------------

void expect_identical_reports(const core::QosReport& plain,
                              const core::QosReport& lossy) {
  EXPECT_EQ(plain.scheme, lossy.scheme);
  EXPECT_EQ(plain.n, lossy.n);
  EXPECT_EQ(plain.d, lossy.d);
  EXPECT_EQ(plain.worst_delay, lossy.worst_delay);
  EXPECT_EQ(plain.average_delay, lossy.average_delay);
  EXPECT_EQ(plain.max_buffer, lossy.max_buffer);
  EXPECT_EQ(plain.average_buffer, lossy.average_buffer);
  EXPECT_EQ(plain.max_neighbors, lossy.max_neighbors);
  EXPECT_EQ(plain.average_neighbors, lossy.average_neighbors);
  EXPECT_EQ(plain.transmissions, lossy.transmissions);
  EXPECT_EQ(lossy.drops, 0);
  EXPECT_EQ(lossy.retransmissions, 0);
}

TEST(LossySession, ZeroLossRateIsBitIdenticalAcrossSchemes) {
  const struct {
    core::Scheme scheme;
    NodeKey n;
    int d;
  } cases[] = {
      {core::Scheme::kMultiTreeGreedy, 20, 2},
      {core::Scheme::kMultiTreeStructured, 13, 2},
      {core::Scheme::kHypercube, 15, 1},
      {core::Scheme::kHypercubeGrouped, 14, 2},
      {core::Scheme::kChain, 6, 1},
      {core::Scheme::kSingleTree, 7, 2},
  };
  for (const auto& c : cases) {
    core::SessionConfig cfg{.scheme = c.scheme, .n = c.n, .d = c.d};
    const core::QosReport plain = core::StreamingSession(cfg).run();
    cfg.loss.model = loss::ErasureKind::kBernoulli;
    cfg.loss.rate = 0.0;
    const core::LossRunResult lossy = core::StreamingSession(cfg).run_lossy();
    SCOPED_TRACE(plain.scheme);
    expect_identical_reports(plain, lossy.qos);
    EXPECT_TRUE(lossy.loss.all_gap_free);
    EXPECT_EQ(lossy.loss.incomplete_nodes, 0);
    EXPECT_EQ(lossy.loss.drain_slots, 0);
    // Playback at the measured playback delay never stalls on a reliable
    // run — the paper's delay definition, restated as a continuity metric.
    EXPECT_EQ(lossy.loss.stalls, 0);
    EXPECT_EQ(lossy.loss.stall_slots, 0);
    EXPECT_EQ(lossy.loss.undecodable, 0);
  }
}

TEST(LossySession, EveryReceiverReachesGapFreePrefixUnderHeavyLoss) {
  const struct {
    core::Scheme scheme;
    NodeKey n;
    int d;
    double rate;
  } cases[] = {
      {core::Scheme::kMultiTreeGreedy, 30, 2, 0.2},
      {core::Scheme::kHypercube, 15, 1, 0.1},
      {core::Scheme::kChain, 8, 1, 0.2},
      {core::Scheme::kSingleTree, 10, 2, 0.1},
  };
  for (const auto& c : cases) {
    core::SessionConfig cfg{.scheme = c.scheme, .n = c.n, .d = c.d};
    cfg.loss.model = loss::ErasureKind::kBernoulli;
    cfg.loss.rate = c.rate;
    cfg.loss.seed = 17;
    const core::LossRunResult r = core::StreamingSession(cfg).run_lossy();
    SCOPED_TRACE(r.qos.scheme);
    EXPECT_TRUE(r.loss.all_gap_free);
    EXPECT_EQ(r.loss.incomplete_nodes, 0);
    EXPECT_GT(r.loss.drops, 0);
    EXPECT_GT(r.loss.retransmissions, 0);
  }
}

TEST(LossySession, GilbertElliottBurstsAreRepaired) {
  core::SessionConfig cfg{.scheme = core::Scheme::kMultiTreeGreedy,
                          .n = 20,
                          .d = 2};
  cfg.loss.model = loss::ErasureKind::kGilbertElliott;
  cfg.loss.ge = {.p_enter = 0.02, .p_recover = 0.25, .loss_good = 0.0,
                 .loss_bad = 1.0};
  cfg.loss.seed = 3;
  const core::LossRunResult r = core::StreamingSession(cfg).run_lossy();
  EXPECT_TRUE(r.loss.all_gap_free);
  EXPECT_EQ(r.loss.incomplete_nodes, 0);
  EXPECT_GT(r.loss.drops, 0);
}

TEST(LossySession, DeterministicAcrossRuns) {
  core::SessionConfig cfg{.scheme = core::Scheme::kMultiTreeGreedy,
                          .n = 15,
                          .d = 2};
  cfg.loss.model = loss::ErasureKind::kBernoulli;
  cfg.loss.rate = 0.1;
  cfg.loss.seed = 99;
  const core::LossRunResult a = core::StreamingSession(cfg).run_lossy();
  const core::LossRunResult b = core::StreamingSession(cfg).run_lossy();
  EXPECT_EQ(a.qos.worst_delay, b.qos.worst_delay);
  EXPECT_EQ(a.qos.transmissions, b.qos.transmissions);
  EXPECT_EQ(a.loss.drops, b.loss.drops);
  EXPECT_EQ(a.loss.retransmissions, b.loss.retransmissions);
  EXPECT_EQ(a.loss.stall_slots, b.loss.stall_slots);
}

TEST(LossySession, MultiClusterWithLossRejected) {
  core::SessionConfig cfg{.scheme = core::Scheme::kMultiTreeGreedy,
                          .n = 5,
                          .d = 2,
                          .clusters = 2};
  cfg.loss.model = loss::ErasureKind::kBernoulli;
  cfg.loss.rate = 0.1;
  EXPECT_THROW(core::StreamingSession{cfg}, std::invalid_argument);
}

// --- playback-continuity metrics ------------------------------------------

TEST(ContinuityRecorder, StallsGapsAndFinish) {
  metrics::ContinuityRecorder rec(2, 5);
  auto arrive = [&](PacketId p, Slot at) {
    rec.on_delivery(Delivery{.sent = at, .received = at, .tx = tx(0, 1, p)});
  };
  arrive(0, 2);
  arrive(1, 3);
  arrive(2, 10);
  // packet 3 never arrives
  arrive(4, 11);

  const auto r = rec.report(1, /*playback_start=*/5, /*horizon=*/20);
  EXPECT_EQ(r.stalls, 1);        // one wait, for packet 2
  EXPECT_EQ(r.stall_slots, 3);   // slots 7, 8, 9
  EXPECT_EQ(r.undecodable, 1);   // packet 3
  ASSERT_EQ(r.gap_lengths.size(), 1u);
  EXPECT_EQ(r.gap_lengths[0], 1);
  EXPECT_EQ(r.finish_slot, 12);
}

TEST(ContinuityRecorder, NoStallWhenEverythingArrivedBeforeStart) {
  metrics::ContinuityRecorder rec(2, 4);
  for (PacketId p = 0; p < 4; ++p) {
    rec.on_delivery(Delivery{.sent = p, .received = p, .tx = tx(0, 1, p)});
  }
  const auto r = rec.report(1, /*playback_start=*/4, /*horizon=*/100);
  EXPECT_EQ(r.stalls, 0);
  EXPECT_EQ(r.stall_slots, 0);
  EXPECT_EQ(r.undecodable, 0);
  EXPECT_TRUE(r.gap_lengths.empty());
  EXPECT_EQ(r.finish_slot, 8);
}

TEST(ContinuityRecorder, TrailingGapAndAdjacentStalls) {
  metrics::ContinuityRecorder rec(2, 4);
  auto arrive = [&](PacketId p, Slot at) {
    rec.on_delivery(Delivery{.sent = at, .received = at, .tx = tx(0, 1, p)});
  };
  arrive(0, 5);
  arrive(1, 7);
  // packets 2 and 3 never arrive: one trailing gap of length 2
  const auto r = rec.report(1, /*playback_start=*/0, /*horizon=*/50);
  EXPECT_EQ(r.stalls, 2);       // waits for packet 0 and again for packet 1
  EXPECT_EQ(r.stall_slots, 6);  // 5 slots for packet 0, 1 more for packet 1
  EXPECT_EQ(r.undecodable, 2);
  ASSERT_EQ(r.gap_lengths.size(), 1u);
  EXPECT_EQ(r.gap_lengths[0], 2);
}

TEST(ContinuityRecorder, CountsRepairTrafficForOverhead) {
  metrics::ContinuityRecorder rec(2, 8);
  for (PacketId p = 0; p < 4; ++p) {
    rec.on_delivery(Delivery{.sent = p, .received = p, .tx = tx(0, 1, p)});
  }
  Tx repair = tx(0, 1, 4);
  repair.retransmit = true;
  rec.on_delivery(Delivery{.sent = 5, .received = 5, .tx = repair});
  rec.on_delivery(
      Delivery{.sent = 6, .received = 6, .tx = tx(0, 1, sim::kControlIdBase)});
  EXPECT_EQ(rec.data_deliveries(), 4);
  EXPECT_EQ(rec.repair_deliveries(), 1);
  EXPECT_EQ(rec.parity_deliveries(), 1);
  EXPECT_DOUBLE_EQ(rec.redundancy_overhead(), 0.5);
}

}  // namespace
}  // namespace streamcast
