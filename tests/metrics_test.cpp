#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/metrics/buffers.hpp"
#include "src/metrics/delay.hpp"
#include "src/metrics/neighbors.hpp"
#include "src/metrics/summary.hpp"
#include "src/util/budget.hpp"
#include "src/util/prng.hpp"

namespace streamcast::metrics {
namespace {

sim::Delivery make(NodeKey from, NodeKey to, PacketId p, Slot at) {
  return sim::Delivery{
      .sent = at,
      .received = at,
      .tx = {.from = from, .to = to, .packet = p, .tag = 0}};
}

TEST(DelayRecorder, PaperNodeOneExample) {
  // §2.3: node 1 receives packets 0, 1, 2 in slots 0, 2, 1. Playback delay
  // under our convention: max(0-0, 2-1, 1-2) = 1.
  DelayRecorder rec(/*nodes=*/2, /*window=*/3);
  rec.on_delivery(make(0, 1, 0, 0));
  rec.on_delivery(make(0, 1, 1, 2));
  rec.on_delivery(make(0, 1, 2, 1));
  ASSERT_TRUE(rec.complete(1));
  EXPECT_EQ(rec.playback_delay(1), 1);
}

TEST(DelayRecorder, IncompleteWindowHasNoDelay) {
  DelayRecorder rec(2, 3);
  rec.on_delivery(make(0, 1, 0, 0));
  EXPECT_FALSE(rec.complete(1));
  EXPECT_EQ(rec.playback_delay(1), std::nullopt);
  EXPECT_THROW(rec.worst_delay(1, 1), std::logic_error);
}

TEST(DelayRecorder, FirstArrivalWins) {
  DelayRecorder rec(2, 1);
  rec.on_delivery(make(0, 1, 0, 5));
  rec.on_delivery(make(0, 1, 0, 2));  // later report of an earlier slot is
                                      // ignored: first delivery stands
  EXPECT_EQ(rec.arrival(1, 0), 5);
}

TEST(DelayRecorder, PacketsOutsideWindowIgnored) {
  DelayRecorder rec(2, 2);
  rec.on_delivery(make(0, 1, 7, 0));
  EXPECT_FALSE(rec.complete(1));
}

TEST(DelayRecorder, WorstAndAverageOverRange) {
  DelayRecorder rec(4, 2);
  // node 1: arrivals 0,1 -> a=0; node 2: 1,2 -> a=1; node 3: 4,2 -> a=4.
  rec.on_delivery(make(0, 1, 0, 0));
  rec.on_delivery(make(0, 1, 1, 1));
  rec.on_delivery(make(0, 2, 0, 1));
  rec.on_delivery(make(0, 2, 1, 2));
  rec.on_delivery(make(0, 3, 0, 4));
  rec.on_delivery(make(0, 3, 1, 2));
  EXPECT_EQ(rec.worst_delay(1, 3), 4);
  EXPECT_DOUBLE_EQ(rec.average_delay(1, 3), (0.0 + 1.0 + 4.0) / 3.0);
  EXPECT_EQ(rec.delays(1, 3), (std::vector<Slot>{0, 1, 4}));
}

TEST(BufferOccupancy, InOrderUnitRateNeedsOnePacket) {
  // Packet j arrives in slot j, playback starts at 0: buffer holds exactly
  // the packet being played.
  const std::vector<Slot> arrivals{0, 1, 2, 3};
  EXPECT_EQ(max_buffer_occupancy(arrivals, 0), 1u);
}

TEST(BufferOccupancy, DelayedStartAccumulates) {
  const std::vector<Slot> arrivals{0, 1, 2, 3};
  // Start at 3: by slot 3 packets 0..3 arrived, only packet 0 played.
  EXPECT_EQ(max_buffer_occupancy(arrivals, 3), 4u);
}

TEST(BufferOccupancy, SeriesShape) {
  const std::vector<Slot> arrivals{0, 2, 1};
  const auto series = occupancy_series(arrivals, /*start=*/2);
  // During slot 0: {p0}; slot 1: {p0,p2}; slot 2: +p1, p0 playing -> 3;
  // slot 3: p0 gone, p1 playing -> 2; slot 4: p2 playing -> 1.
  EXPECT_EQ(series, (std::vector<std::size_t>{1, 2, 3, 2, 1}));
}

TEST(BufferOccupancy, PaperNodeOneNeedsThreeWithStartThree) {
  // §2.3: "node 1 will receive packets 0, 1, and 2 in time slots 0, 2, and
  // 1, respectively. Therefore a buffer size of 3 is sufficient for node 1."
  // (The paper starts playback after one packet from each of the d=3 trees.)
  const std::vector<Slot> arrivals{0, 2, 1};
  EXPECT_EQ(max_buffer_occupancy(arrivals, /*start=*/3), 3u);
}

TEST(BufferOccupancy, InfeasibleStartThrows) {
  const std::vector<Slot> arrivals{5, 6};
  EXPECT_THROW(occupancy_series(arrivals, 0), std::logic_error);
}

/// occ(t) straight from the definition in buffers.hpp, one slot at a time;
/// nullopt where the start is infeasible.
std::optional<std::size_t> brute_force_max(const std::vector<Slot>& arrivals,
                                           Slot start) {
  const auto window = static_cast<Slot>(arrivals.size());
  Slot last = start + window - 1;
  for (const Slot a : arrivals) last = std::max(last, a);
  std::size_t peak = 0;
  for (Slot t = 0; t <= last; ++t) {
    const auto received = std::ranges::count_if(
        arrivals, [&](Slot a) { return a <= t; });
    const Slot played = std::clamp<Slot>(t - start, 0, window);
    if (received < played) return std::nullopt;
    peak = std::max(peak, static_cast<std::size_t>(received - played));
  }
  return peak;
}

TEST(BufferOccupancy, MaximumMatchesSeriesAndDefinitionOnSeededRows) {
  util::Prng prng(42);
  int thrown = 0;
  int long_rows = 0;
  for (int row_index = 0; row_index < 3000; ++row_index) {
    // Short windows, and a tail of long ones whose series outgrows the
    // stack-counted rows.
    const auto window = static_cast<std::size_t>(
        prng.chance(0.9) ? prng.range(1, 40) : prng.range(200, 320));
    std::vector<Slot> arrivals(window);
    for (std::size_t j = 0; j < window; ++j) {
      // Packet j arrives up to 12 slots either side of slot j.
      arrivals[j] =
          std::max<Slot>(0, static_cast<Slot>(j) + prng.range(-12, 12));
    }
    Slot feasible = 0;
    for (std::size_t j = 0; j < window; ++j) {
      feasible = std::max(feasible, arrivals[j] - static_cast<Slot>(j));
    }
    // Starts around the per-packet feasibility point, below it included.
    const Slot start = std::max<Slot>(0, feasible + prng.range(-6, 6));
    if (start + static_cast<Slot>(window) > 256) ++long_rows;
    const std::optional<std::size_t> expected =
        brute_force_max(arrivals, start);
    if (expected) {
      EXPECT_EQ(max_buffer_occupancy(arrivals, start), *expected)
          << "row " << row_index;
      const auto series = occupancy_series(arrivals, start);
      EXPECT_EQ(*std::ranges::max_element(series), *expected)
          << "row " << row_index;
    } else {
      ++thrown;
      EXPECT_THROW(max_buffer_occupancy(arrivals, start), std::logic_error)
          << "row " << row_index;
      EXPECT_THROW(occupancy_series(arrivals, start), std::logic_error);
    }
  }
  EXPECT_GT(thrown, 0);
  EXPECT_GT(long_rows, 0);
}

TEST(BufferOccupancy, MaximumKeepsBothErrors) {
  const auto error = [](const std::vector<Slot>& arrivals, Slot start) {
    try {
      max_buffer_occupancy(arrivals, start);
    } catch (const std::logic_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(error({0, -1, 2}, 3), "occupancy of an incomplete window");
  EXPECT_EQ(error({5, 6}, 0), "playback start precedes feasibility");
  EXPECT_EQ(error({400, 401}, 0), "playback start precedes feasibility");
}

TEST(BufferOccupancy, PerNodeViaRecorder) {
  DelayRecorder rec(2, 3);
  rec.on_delivery(make(0, 1, 0, 0));
  rec.on_delivery(make(0, 1, 1, 2));
  rec.on_delivery(make(0, 1, 2, 1));
  const auto occ = max_occupancies(rec, 1, 1);
  ASSERT_EQ(occ.size(), 1u);
  // a(1) = 1. During-slot occupancy: t0 {p0}; t1 {p0 playing, p2} -> 2;
  // t2 {p1 arriving+playing, p2} -> 2; t3 {p2 playing} -> 1. Max is 2.
  EXPECT_EQ(occ[0], 2u);
}

TEST(NeighborRecorder, CountsBothDirectionsDistinct) {
  NeighborRecorder rec(5);
  rec.on_delivery(make(0, 1, 0, 0));
  rec.on_delivery(make(1, 2, 0, 1));
  rec.on_delivery(make(1, 2, 1, 2));  // repeat partner: still one neighbor
  rec.on_delivery(make(3, 1, 5, 2));
  EXPECT_EQ(rec.count(1), 3u);  // 0, 2, 3
  EXPECT_EQ(rec.count(2), 1u);
  EXPECT_EQ(rec.count(4), 0u);
  EXPECT_EQ(rec.max_count(1, 4), 3u);
  EXPECT_DOUBLE_EQ(rec.mean_count(1, 4), (3.0 + 1.0 + 1.0 + 0.0) / 4.0);
}

// --- the flat recorders against reference models --------------------------
//
// The models are the straightforward layouts the flat recorders replace: a
// first-arrival Slot per (node, packet) and a std::set of partners per node.

/// First-arrival reference for DelayRecorder.
class DelayModel {
 public:
  DelayModel(NodeKey nodes, PacketId window)
      : nodes_(nodes),
        window_(window),
        arrival_(static_cast<std::size_t>(nodes * window), kNeverArrived) {}

  void deliver(NodeKey to, PacketId p, Slot at) {
    if (to < 0 || to >= nodes_ || p < 0 || p >= window_) return;
    Slot& cell = arrival_[static_cast<std::size_t>(to * window_ + p)];
    if (cell == kNeverArrived) cell = at;
  }

  std::vector<Slot> row(NodeKey node) const {
    const auto first = arrival_.begin() + node * window_;
    return {first, first + window_};
  }

  std::optional<Slot> delay(NodeKey node) const {
    Slot a = 0;
    const std::vector<Slot> arrivals = row(node);
    for (PacketId j = 0; j < window_; ++j) {
      const Slot got = arrivals[static_cast<std::size_t>(j)];
      if (got == kNeverArrived) return std::nullopt;
      a = std::max(a, got - j);
    }
    return a;
  }

 private:
  NodeKey nodes_;
  PacketId window_;
  std::vector<Slot> arrival_;
};

TEST(DelayRecorder, MatchesFirstArrivalModelUnderRandomDeliveries) {
  constexpr NodeKey kNodes = 9;
  constexpr PacketId kWindow = 12;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    util::Prng prng(seed);
    DelayRecorder rec(kNodes, kWindow);
    DelayModel model(kNodes, kWindow);
    std::vector<Slot> row;
    const auto agree = [&] {
      for (NodeKey node = 0; node < kNodes; ++node) {
        const std::vector<Slot> expected = model.row(node);
        for (PacketId j = 0; j < kWindow; ++j) {
          ASSERT_EQ(rec.arrival(node, j), expected[static_cast<std::size_t>(j)])
              << "seed=" << seed << " node=" << node << " packet=" << j;
        }
        rec.arrivals(node, row);
        ASSERT_EQ(row, expected);
        ASSERT_EQ(rec.playback_delay(node), model.delay(node));
        ASSERT_EQ(rec.complete(node), model.delay(node).has_value());
      }
    };
    for (int batch = 0; batch < 60; ++batch) {
      for (int i = 0; i < 10; ++i) {
        // Node and packet ids reach one past each end of the tracked
        // ranges; slots start at 0, so some packets arrive before their id,
        // and repeated cells bring duplicates at earlier and later slots.
        const auto to = static_cast<NodeKey>(prng.range(-1, kNodes));
        const auto p = static_cast<PacketId>(prng.range(-1, kWindow));
        const auto at = static_cast<Slot>(prng.range(0, 30));
        rec.on_delivery(make(0, to, p, at));
        model.deliver(to, p, at);
      }
      agree();
    }
    // A late sweep over every cell completes every node: duplicates where a
    // packet already arrived, first arrivals elsewhere.
    for (NodeKey node = 0; node < kNodes; ++node) {
      for (PacketId p = 0; p < kWindow; ++p) {
        rec.on_delivery(make(0, node, p, 40 + p));
        model.deliver(node, p, 40 + p);
      }
    }
    agree();
    for (NodeKey node = 0; node < kNodes; ++node) {
      EXPECT_TRUE(rec.complete(node)) << "seed=" << seed << " node=" << node;
    }
  }
}

TEST(DelayRecorder, LedgerChargesTheDeltaMatrix) {
  util::BudgetLedger ledger(util::MemoryBudget{1 << 20});
  const DelayRecorder rec(7, 11, &ledger);
  EXPECT_EQ(ledger.used(), 7u * 11u * sizeof(std::int32_t) +
                               7u * (sizeof(PacketId) + sizeof(std::int32_t)));
  util::BudgetLedger tight(util::MemoryBudget{100});
  EXPECT_THROW(DelayRecorder(7, 11, &tight), util::BudgetExceeded);
}

/// Ledger bytes of a NeighborRecorder over `nodes` whose partner counts are
/// `degrees`: the rows, plus one block per kRowWidth - 1 partners past the
/// first kRowWidth - 1 of every node that spilled.
std::size_t neighbor_bytes(NodeKey nodes,
                           const std::vector<std::size_t>& degrees) {
  constexpr std::size_t kWidth = NeighborRecorder::kRowWidth;
  std::size_t bytes =
      static_cast<std::size_t>(nodes) * (kWidth * sizeof(NodeKey) + 1);
  for (const std::size_t degree : degrees) {
    if (degree <= kWidth) continue;
    const std::size_t spilled = degree - (kWidth - 1);
    const std::size_t blocks = (spilled + kWidth - 2) / (kWidth - 1);
    bytes += blocks * kWidth * sizeof(NodeKey);
  }
  return bytes;
}

TEST(NeighborRecorder, MatchesSetModelWithHubsPastTheRow) {
  constexpr NodeKey kNodes = 200;
  constexpr NodeKey kHubs = 4;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    util::Prng prng(seed);
    util::BudgetLedger ledger(util::MemoryBudget{1 << 20});
    NeighborRecorder rec(kNodes, &ledger);
    std::vector<std::set<NodeKey>> model(static_cast<std::size_t>(kNodes));
    // Each hub draws its partners from a pool of 30-60 nodes; everyone else
    // exchanges with a few random nodes.
    std::vector<std::vector<NodeKey>> pools(static_cast<std::size_t>(kHubs));
    for (auto& pool : pools) {
      const auto size = static_cast<std::size_t>(prng.range(30, 60));
      while (pool.size() < size) {
        const auto x = static_cast<NodeKey>(prng.range(kHubs, kNodes - 1));
        if (std::ranges::find(pool, x) == pool.end()) pool.push_back(x);
      }
    }
    for (int batch = 0; batch < 40; ++batch) {
      for (int i = 0; i < 50; ++i) {
        NodeKey from = 0;
        NodeKey to = 0;
        if (prng.chance(0.6)) {
          const auto hub =
              static_cast<NodeKey>(prng.below(std::uint64_t{kHubs}));
          const auto& pool = pools[static_cast<std::size_t>(hub)];
          from = hub;
          to = pool[prng.below(pool.size())];
          if (prng.chance(0.5)) std::swap(from, to);
        } else {
          from = static_cast<NodeKey>(prng.range(kHubs, kNodes - 1));
          to = static_cast<NodeKey>(prng.range(kHubs, kNodes - 1));
        }
        rec.on_delivery(make(from, to, 0, batch));
        model[static_cast<std::size_t>(from)].insert(to);
        model[static_cast<std::size_t>(to)].insert(from);
      }
      std::vector<std::size_t> degrees;
      for (NodeKey node = 0; node < kNodes; ++node) {
        degrees.push_back(model[static_cast<std::size_t>(node)].size());
        ASSERT_EQ(rec.count(node), degrees.back())
            << "seed=" << seed << " batch=" << batch << " node=" << node;
      }
      ASSERT_EQ(rec.max_count(0, kNodes - 1), std::ranges::max(degrees));
      ASSERT_EQ(ledger.used(), neighbor_bytes(kNodes, degrees));
    }
    for (NodeKey hub = 0; hub < kHubs; ++hub) {
      EXPECT_GE(rec.count(hub), 30u) << "seed=" << seed << " hub=" << hub;
    }
  }
}

TEST(NeighborRecorder, SpillPastTheRowKeepsCountsExact) {
  constexpr std::size_t kWidth = NeighborRecorder::kRowWidth;
  util::BudgetLedger ledger(util::MemoryBudget{1 << 20});
  NeighborRecorder rec(4, &ledger);
  const std::size_t rows = 4 * (kWidth * sizeof(NodeKey) + 1);
  EXPECT_EQ(ledger.used(), rows);
  // Partners beyond the tracked range still count for node 1.
  const auto deliver_from = [&](NodeKey first, NodeKey last) {
    for (NodeKey p = first; p <= last; ++p) rec.on_delivery(make(p, 1, 0, 0));
  };
  deliver_from(100, 123);  // a full row
  EXPECT_EQ(rec.count(1), kWidth);
  EXPECT_EQ(ledger.used(), rows);
  deliver_from(124, 124);  // the first spill adds one block
  EXPECT_EQ(rec.count(1), kWidth + 1);
  EXPECT_EQ(ledger.used(), rows + kWidth * sizeof(NodeKey));
  deliver_from(100, 124);  // repeats from the row and the moved partner
  EXPECT_EQ(rec.count(1), kWidth + 1);
  deliver_from(125, 145);  // fills the first block: 23 in the row, 23 there
  EXPECT_EQ(rec.count(1), 2 * (kWidth - 1));
  EXPECT_EQ(ledger.used(), rows + kWidth * sizeof(NodeKey));
  deliver_from(146, 171);  // a second and third block
  EXPECT_EQ(rec.count(1), 72u);
  EXPECT_EQ(ledger.used(), rows + 3 * kWidth * sizeof(NodeKey));
  deliver_from(100, 171);
  EXPECT_EQ(rec.count(1), 72u);
  // Other nodes are untouched, and a second spilling node chains its own
  // blocks in the same pool.
  EXPECT_EQ(rec.count(2), 0u);
  for (NodeKey p = 200; p < 230; ++p) rec.on_delivery(make(2, p, 0, 0));
  EXPECT_EQ(rec.count(2), 30u);
  EXPECT_EQ(rec.count(1), 72u);
  EXPECT_EQ(rec.max_count(1, 3), 72u);
  EXPECT_DOUBLE_EQ(rec.mean_count(1, 3), (72.0 + 30.0 + 0.0) / 3.0);
}

TEST(NeighborRecorder, NegativePartnersNeverCountAboveRangeOnesDo) {
  // kNoNode (-1) marks the pool's empty slots. A negative partner counts in
  // neither an unspilled nor a spilled row; a partner above the recorder's
  // range counts once in both.
  NeighborRecorder rec(100);
  rec.on_delivery(make(0, 1, 0, 0));
  for (NodeKey p = 10; p < 40; ++p) rec.on_delivery(make(p, 2, 0, 0));
  ASSERT_EQ(rec.count(1), 1u);
  ASSERT_EQ(rec.count(2), 30u);  // past the row: spilled
  for (const NodeKey negative : {-1, -2}) {
    for (const NodeKey node : {1, 2}) {
      rec.on_delivery(make(negative, node, 0, 0));
      rec.on_delivery(make(node, negative, 0, 0));
    }
  }
  EXPECT_EQ(rec.count(1), 1u);
  EXPECT_EQ(rec.count(2), 30u);
  for (int round = 0; round < 2; ++round) {
    rec.on_delivery(make(500, 1, 0, 0));
    rec.on_delivery(make(2, 500, 0, 0));
  }
  EXPECT_EQ(rec.count(1), 2u);
  EXPECT_EQ(rec.count(2), 31u);
}

TEST(Recorders, SpanMatchesOneAtATime) {
  // The delay recorder prefetches a fixed distance ahead, and the neighbor
  // recorder skips the second row search of a known pair. Spans shorter
  // than, equal to and well past the prefetch distance must leave both
  // recorders in the state one-at-a-time feeding leaves, with
  // out-of-window packets, out-of-range keys (for which no cell address may
  // be formed) and repeated deliveries mixed in. Node 1 gains enough
  // partners to spill.
  constexpr NodeKey kNodes = 40;
  constexpr PacketId kWindow = 8;
  constexpr std::size_t kAhead = DelayRecorder::kPrefetchAhead;
  const auto key = [](util::Prng& prng) -> NodeKey {
    switch (prng.below(8)) {
      case 0: return -1 - static_cast<NodeKey>(prng.below(3));
      case 1: return kNodes + static_cast<NodeKey>(prng.below(1 << 20));
      case 2: return 1;
      default: return static_cast<NodeKey>(prng.below(kNodes));
    }
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Prng prng(seed);
    DelayRecorder span_delays(kNodes, kWindow);
    DelayRecorder one_delays(kNodes, kWindow);
    NeighborRecorder span_neighbors(kNodes);
    NeighborRecorder one_neighbors(kNodes);
    std::vector<sim::Delivery> slot;
    std::vector<sim::Delivery> sent;
    for (Slot t = 0; t < 64; ++t) {
      slot.clear();
      const auto length = prng.below(3 * kAhead + 1);
      for (std::uint64_t i = 0; i < length; ++i) {
        if (!sent.empty() && prng.chance(0.2)) {
          sim::Delivery again = sent[prng.below(sent.size())];
          again.received = t;
          slot.push_back(again);
          continue;
        }
        const PacketId p = prng.chance(0.85)
                               ? static_cast<PacketId>(prng.below(kWindow))
                               : prng.range(-3, 2 * kWindow);
        slot.push_back(make(key(prng), key(prng), p, t));
      }
      sent.insert(sent.end(), slot.begin(), slot.end());
      span_delays.on_deliveries(slot);
      span_neighbors.on_deliveries(slot);
      for (const sim::Delivery& d : slot) {
        one_delays.on_delivery(d);
        one_neighbors.on_delivery(d);
      }
    }
    NodeKey complete = 0;
    for (NodeKey node = 0; node < kNodes; ++node) {
      if (one_delays.complete(node)) ++complete;
      for (PacketId p = 0; p < kWindow; ++p) {
        ASSERT_EQ(span_delays.arrival(node, p), one_delays.arrival(node, p))
            << "seed=" << seed << " node=" << node << " packet=" << p;
      }
      ASSERT_EQ(span_delays.playback_delay(node),
                one_delays.playback_delay(node))
          << "seed=" << seed << " node=" << node;
      ASSERT_EQ(span_neighbors.count(node), one_neighbors.count(node))
          << "seed=" << seed << " node=" << node;
    }
    EXPECT_GT(complete, 0) << "seed=" << seed;
    EXPECT_GT(span_neighbors.count(1),
              static_cast<std::size_t>(NeighborRecorder::kRowWidth))
        << "seed=" << seed;
  }
}

TEST(Summary, BasicStatistics) {
  const std::vector<double> v{4, 1, 3, 2, 5};
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.mean, 3);
  EXPECT_DOUBLE_EQ(s.p50, 3);
  EXPECT_DOUBLE_EQ(s.p95, 5);
}

TEST(Summary, EmptyInput) {
  const Summary s = summarize(std::vector<double>{});
  EXPECT_EQ(s.n, 0u);
}

TEST(Summary, SlotOverload) {
  const std::vector<sim::Slot> v{10, 20};
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.mean, 15);
}

}  // namespace
}  // namespace streamcast::metrics
