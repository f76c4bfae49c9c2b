// Schedule tests: the closed-form arrival offsets against the paper's worked
// example, and full engine simulations cross-checked against the closed form
// for a grid of (N, d, construction, mode).
#include <gtest/gtest.h>

#include <tuple>

#include "src/metrics/buffers.hpp"
#include "src/metrics/delay.hpp"
#include "src/metrics/neighbors.hpp"
#include "src/multitree/analysis.hpp"
#include "src/multitree/greedy.hpp"
#include "src/multitree/protocol.hpp"
#include "src/multitree/schedule.hpp"
#include "src/multitree/structured.hpp"
#include "src/net/topology.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/trace.hpp"
#include "src/static/lattice.hpp"

namespace streamcast::multitree {
namespace {

using metrics::DelayRecorder;
using sim::Slot;

/// Runs the multi-tree protocol and returns the recorder over `window`
/// packets. Horizon: enough slots for the window plus worst-case delay.
DelayRecorder simulate(const Forest& forest, StreamMode mode,
                       sim::PacketId window) {
  net::UniformCluster topo(forest.n(), forest.d());
  MultiTreeProtocol proto(forest, mode);
  sim::Engine engine(topo, proto);
  DelayRecorder rec(forest.n() + 1, window);
  engine.add_observer(rec);
  const Slot horizon = window + worst_delay_bound(forest.n(), forest.d()) +
                       3 * forest.d() + 4;
  engine.run_until(horizon);
  return rec;
}

TEST(ArrivalOffsets, PaperWorkedExample) {
  // §2.2.3 with Figure 3: in tree T_0, node at position 1 receives packet 0
  // in slot 0, then forwards it to its children (positions 5, 6, 4) in slots
  // 1, 2, 3.
  const Forest f = build_greedy(15, 3);
  const auto off = envelope::arrival_offsets(f.n_pad(), f.d());
  EXPECT_EQ(off[1], 0);
  EXPECT_EQ(off[2], 1);
  EXPECT_EQ(off[3], 2);
  EXPECT_EQ(off[5], 1);
  EXPECT_EQ(off[6], 2);
  EXPECT_EQ(off[4], 3);
}

TEST(ArrivalOffsets, BoundedByDepthTimesD) {
  for (const int d : {2, 3, 4, 5}) {
    for (const NodeKey n : {7, 15, 40, 100, 255}) {
      const Forest f = build_greedy(n, d);
      const auto off = envelope::arrival_offsets(f.n_pad(), d);
      for (NodeKey p = 1; p <= f.n_pad(); ++p) {
        EXPECT_LE(off[static_cast<std::size_t>(p)],
                  static_cast<Slot>(f.depth_of(p)) * d);
        EXPECT_GE(off[static_cast<std::size_t>(p)],
                  static_cast<Slot>(f.depth_of(p)) - 1);
      }
    }
  }
}

TEST(ClosedFormDelay, PaperNodeOneIsOne) {
  // Node 1 in the Figure 3 forest receives packets 0,1,2 in slots 0,2,1:
  // delay 1 under our convention (DESIGN.md §3).
  const Forest f = build_greedy(15, 3);
  const auto delays = closed_form_delays(f);
  EXPECT_EQ(delays[1], 1);
}

TEST(ClosedFormDelay, RespectsTheoremTwoBound) {
  for (const int d : {2, 3, 4, 5}) {
    for (const NodeKey n : {5, 12, 15, 39, 100, 363, 1000}) {
      for (const bool greedy : {false, true}) {
        const Forest f = greedy ? build_greedy(n, d) : build_structured(n, d);
        EXPECT_LE(closed_form_worst_delay(f), worst_delay_bound(n, d))
            << "n=" << n << " d=" << d << " greedy=" << greedy;
      }
    }
  }
}

TEST(Simulation, MatchesPaperExampleSlotBySlot) {
  // §2.2.3: "in time slot 0, S sends packet 0 to node id 1 in tree T_0,
  // packet 1 to node 5 in T_1, and packet 2 to node 9 in T_2. Then, in time
  // slot 1, S sends packet 0 to node 2 in T_0, packet 1 to node 6 in T_1 and
  // packet 2 to node 10 in T_2."
  const Forest f = build_greedy(15, 3);
  MultiTreeProtocol proto(f);
  std::vector<sim::Tx> slot0, slot1;
  proto.transmit(0, slot0);
  // Deliver S's slot-0 packets so interior recipients can forward in slot 1.
  for (const auto& tx : slot0) proto.deliver(0, tx);
  proto.transmit(1, slot1);

  const auto has = [](const std::vector<sim::Tx>& txs, sim::NodeKey from,
                      sim::NodeKey to, sim::PacketId p) {
    for (const auto& tx : txs) {
      if (tx.from == from && tx.to == to && tx.packet == p) return true;
    }
    return false;
  };
  EXPECT_TRUE(has(slot0, 0, 1, 0));
  EXPECT_TRUE(has(slot0, 0, 5, 1));
  EXPECT_TRUE(has(slot0, 0, 9, 2));
  EXPECT_EQ(slot0.size(), 3u);
  EXPECT_TRUE(has(slot1, 0, 2, 0));
  EXPECT_TRUE(has(slot1, 0, 6, 1));
  EXPECT_TRUE(has(slot1, 0, 10, 2));
  // "After receiving packet 0 from S in slot 0 in T_0, node 1 will send
  // packet 0 to node 5 in slot 1" (its child index 1 in T_0 is node 5).
  EXPECT_TRUE(has(slot1, 1, 5, 0));
}

// ---------------------------------------------------------------------------
// Grid: simulation agrees exactly with the closed form (pre-recorded) and is
// shifted by exactly d (live-prebuffered). All engine invariants (capacity,
// no duplicates) hold implicitly — violations throw.
// ---------------------------------------------------------------------------

using Param = std::tuple<int, int, bool>;  // N, d, greedy?

class ScheduleGrid : public ::testing::TestWithParam<Param> {};

TEST_P(ScheduleGrid, SimulationMatchesClosedForm) {
  const auto [n, d, greedy] = GetParam();
  const Forest f = greedy ? build_greedy(n, d) : build_structured(n, d);
  const sim::PacketId window = 2 * d * (f.height() + 2);
  const auto rec = simulate(f, StreamMode::kPreRecorded, window);
  const auto expected = closed_form_delays(f);
  for (NodeKey x = 1; x <= f.n(); ++x) {
    ASSERT_TRUE(rec.complete(x)) << "node " << x;
    EXPECT_EQ(rec.playback_delay(x), expected[static_cast<std::size_t>(x)])
        << "node " << x;
  }
}

TEST_P(ScheduleGrid, LivePrebufferedShiftsDelaysByExactlyD) {
  const auto [n, d, greedy] = GetParam();
  const Forest f = greedy ? build_greedy(n, d) : build_structured(n, d);
  const sim::PacketId window = 2 * d * (f.height() + 2);
  const auto rec = simulate(f, StreamMode::kLivePrebuffered, window);
  const auto expected = closed_form_delays(f);
  for (NodeKey x = 1; x <= f.n(); ++x) {
    ASSERT_TRUE(rec.complete(x));
    EXPECT_EQ(rec.playback_delay(x),
              expected[static_cast<std::size_t>(x)] + d);
  }
}

TEST_P(ScheduleGrid, LivePipelinedMatchesItsClosedForm) {
  const auto [n, d, greedy] = GetParam();
  const Forest f = greedy ? build_greedy(n, d) : build_structured(n, d);
  const sim::PacketId window = 2 * d * (f.height() + 2);
  // Engine enforces receive-capacity 1: a collision would throw.
  const auto rec = simulate(f, StreamMode::kLivePipelined, window);
  const auto expected = closed_form_delays_pipelined(f);
  for (NodeKey x = 1; x <= f.n(); ++x) {
    ASSERT_TRUE(rec.complete(x));
    // The per-tree slip analysis predicts every node's delay exactly —
    // the analysis §2.2.3 calls "not easy".
    EXPECT_EQ(*rec.playback_delay(x), expected[static_cast<std::size_t>(x)])
        << "node " << x;
    // And pipelining never costs more than d over the worst-case bound.
    EXPECT_LE(*rec.playback_delay(x), worst_delay_bound(n, d) + d);
  }
}

TEST_P(ScheduleGrid, NeighborCountAtMostTwoD) {
  const auto [n, d, greedy] = GetParam();
  const Forest f = greedy ? build_greedy(n, d) : build_structured(n, d);
  net::UniformCluster topo(f.n(), d);
  MultiTreeProtocol proto(f);
  sim::Engine engine(topo, proto);
  metrics::NeighborRecorder rec(f.n() + 1);
  engine.add_observer(rec);
  engine.run_until(4 * worst_delay_bound(n, d) + 8);
  // §1: each node communicates with at most 2d nodes (d parents + d
  // children), where S may count as several of the d parents.
  EXPECT_LE(rec.max_count(1, f.n()), 2 * static_cast<std::size_t>(d));
}

TEST_P(ScheduleGrid, BufferOccupancyWithinTheoremTwoBound) {
  const auto [n, d, greedy] = GetParam();
  const Forest f = greedy ? build_greedy(n, d) : build_structured(n, d);
  const sim::PacketId window = 2 * d * (f.height() + 2);
  const auto rec = simulate(f, StreamMode::kPreRecorded, window);
  const auto occ = metrics::max_occupancies(rec, 1, f.n());
  for (const std::size_t o : occ) {
    EXPECT_LE(o, static_cast<std::size_t>(worst_delay_bound(n, d)));
  }
}

// ---------------------------------------------------------------------------
// Memoized periodic-schedule cache: the replayed closed form must reproduce
// the cursor-driven pump's transmissions byte for byte, warm-up included.
// ---------------------------------------------------------------------------

/// Simulates with the cache either active (the default) or forced off, and
/// returns the full delivery trace.
std::vector<sim::Delivery> traced_run(const Forest& forest, StreamMode mode,
                                      bool cached) {
  net::UniformCluster topo(forest.n(), forest.d());
  MultiTreeProtocol proto(forest, mode);
  if (!cached) proto.use_periodic_cache(false);
  EXPECT_EQ(proto.periodic_cache_active(), cached);
  sim::Engine engine(topo, proto);
  sim::Trace trace;
  engine.add_observer(trace);
  engine.run_until(4 * worst_delay_bound(forest.n(), forest.d()) + 16);
  return trace.all();
}

TEST(PeriodicCache, ReplaysCursorPumpByteForByte) {
  for (const bool greedy : {false, true}) {
    for (const auto mode :
         {StreamMode::kPreRecorded, StreamMode::kLivePrebuffered}) {
      for (const int d : {1, 2, 3, 5}) {
        for (const NodeKey n : {1, 2, 7, 15, 40, 121}) {
          const Forest f =
              greedy ? build_greedy(n, d) : build_structured(n, d);
          const auto cached = traced_run(f, mode, true);
          const auto pumped = traced_run(f, mode, false);
          ASSERT_EQ(cached.size(), pumped.size())
              << "n=" << n << " d=" << d << " greedy=" << greedy;
          for (std::size_t i = 0; i < cached.size(); ++i) {
            const sim::Delivery& a = cached[i];
            const sim::Delivery& b = pumped[i];
            ASSERT_TRUE(a.sent == b.sent && a.received == b.received &&
                        a.tx.from == b.tx.from && a.tx.to == b.tx.to &&
                        a.tx.packet == b.tx.packet && a.tx.tag == b.tx.tag)
                << "n=" << n << " d=" << d << " delivery " << i;
          }
        }
      }
    }
  }
}

TEST(PeriodicCache, DisabledForPipelinedAndGatedSources) {
  const Forest f = build_greedy(15, 3);
  MultiTreeProtocol pipelined(f, StreamMode::kLivePipelined);
  EXPECT_FALSE(pipelined.periodic_cache_active());
  pipelined.use_periodic_cache(true);  // ineligible: request ignored
  EXPECT_FALSE(pipelined.periodic_cache_active());
  MultiTreeProtocol gated(f, StreamMode::kPreRecorded,
                          [](sim::PacketId, Slot) { return true; });
  EXPECT_FALSE(gated.periodic_cache_active());
}

TEST(PeriodicCache, EnabledByDefaultForEligibleModes) {
  const Forest f = build_greedy(15, 3);
  MultiTreeProtocol pre(f, StreamMode::kPreRecorded);
  EXPECT_TRUE(pre.periodic_cache_active());
  MultiTreeProtocol live(f, StreamMode::kLivePrebuffered);
  EXPECT_TRUE(live.periodic_cache_active());
  pre.use_periodic_cache(false);
  EXPECT_FALSE(pre.periodic_cache_active());
}

std::vector<Param> schedule_grid() {
  std::vector<Param> grid;
  for (const bool greedy : {false, true}) {
    for (const int d : {1, 2, 3, 4, 5}) {
      for (const int n : {1, 2, 5, 7, 12, 15, 18, 31, 64, 121}) {
        grid.emplace_back(n, d, greedy);
      }
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ScheduleGrid, ::testing::ValuesIn(schedule_grid()),
    [](const auto& tp) {
      return std::string(std::get<2>(tp.param) ? "greedy" : "structured") +
             "_N" + std::to_string(std::get<0>(tp.param)) + "_d" +
             std::to_string(std::get<1>(tp.param));
    });

}  // namespace
}  // namespace streamcast::multitree
