// Dynamic (mid-stream) churn tests: the protocol keeps streaming while the
// forest mutates; stable viewers stay hiccup-free, joiners enter at the
// live edge, and the engine's capacity/collision checks hold throughout.
#include <gtest/gtest.h>

#include <vector>

#include "src/metrics/delay.hpp"
#include "src/metrics/playback.hpp"
#include "src/multitree/analysis.hpp"
#include "src/multitree/churn.hpp"
#include "src/multitree/dynamic.hpp"
#include "src/multitree/greedy.hpp"
#include "src/multitree/schedule.hpp"
#include "src/multitree/validate.hpp"
#include "src/net/topology.hpp"
#include "src/sim/engine.hpp"
#include "src/util/prng.hpp"

namespace streamcast::multitree {
namespace {

using sim::Slot;

/// A world big enough for growth: engine topology sized at capacity.
struct DynamicWorld {
  DynamicWorld(NodeKey n0, int d, ChurnPolicy policy, NodeKey capacity)
      : churn(n0, d, policy),
        proto(churn),
        topo(capacity, d),
        // Duplicates are allowed: shrink+grow cycles reset structural-id
        // state, so re-delivery to a reoccupied id is legitimate (counted
        // per peer by the tracker). Capacity checks stay on.
        engine(topo, proto,
               sim::EngineOptions{.forbid_duplicates = false}),
        margin(worst_delay_bound(capacity, d) + 2 * d),
        tracker([this](NodeKey id) { return churn.peer_at(id); }, margin) {
    engine.add_observer(tracker);
    for (NodeKey id = 1; id <= n0; ++id) {
      tracker.peer_seated(churn.peer_at(id), 0, proto.live_edge());
    }
  }

  PeerId add(Slot now) {
    const PeerId p = churn.add();
    proto.resync(now);
    tracker.peer_seated(p, now, proto.live_edge());
    return p;
  }

  void remove(PeerId p, Slot now) {
    tracker.peer_left(p, now);
    churn.remove(p);
    proto.resync(now);
  }

  ChurnForest churn;
  DynamicMultiTreeProtocol proto;
  net::UniformCluster topo;
  sim::Engine engine;
  Slot margin;
  metrics::PeerPlaybackTracker tracker;
};

TEST(Dynamic, NoChurnMeansNoHiccups) {
  DynamicWorld world(20, 2, ChurnPolicy::kEager, 64);
  world.engine.run_until(300);
  world.tracker.finish(300);
  EXPECT_EQ(world.tracker.total_hiccups(), 0);
  EXPECT_GT(world.tracker.total_played(), 20 * 200);
}

TEST(Dynamic, StaticRunMatchesStaticProtocolDeliveries) {
  // With no churn events, the dynamic protocol is the static round-robin
  // schedule: every occupied node receives one packet per tree per d slots.
  DynamicWorld world(15, 3, ChurnPolicy::kEager, 32);
  metrics::DelayRecorder rec(33, 30);
  world.engine.add_observer(rec);
  world.engine.run_until(120);
  const Forest reference = build_greedy(15, 3);
  const auto expected = closed_form_delays(reference);
  for (NodeKey x = 1; x <= 15; ++x) {
    ASSERT_TRUE(rec.complete(x));
    EXPECT_EQ(*rec.playback_delay(x), expected[static_cast<std::size_t>(x)]);
  }
}

TEST(Dynamic, JoinerEntersAtLiveEdgeWithoutHiccups) {
  DynamicWorld world(13, 3, ChurnPolicy::kEager, 64);
  world.engine.run_until(100);
  world.add(100);  // N = 13 -> 14, non-boundary: nobody moves
  world.engine.run_until(400);
  world.tracker.finish(400);
  EXPECT_EQ(world.tracker.total_hiccups(), 0);
  EXPECT_EQ(world.tracker.peers_tracked(), 14u);
}

TEST(Dynamic, LeafDepartureDisturbsNobody) {
  DynamicWorld world(14, 3, ChurnPolicy::kEager, 64);
  world.engine.run_until(100);
  // Peer at the last id is the all-leaf replacement candidate: removing it
  // relabels nobody.
  world.remove(world.churn.peer_at(14), 100);
  world.engine.run_until(400);
  world.tracker.finish(400);
  EXPECT_EQ(world.tracker.total_hiccups(), 0);
}

TEST(Dynamic, InteriorDepartureHiccupsAreBounded) {
  DynamicWorld world(14, 3, ChurnPolicy::kEager, 64);
  world.engine.run_until(100);
  // Remove an interior peer: its replacement (the old id-14 peer) moves to
  // interior positions and misses some in-flight packets.
  world.remove(world.churn.peer_at(2), 100);
  world.engine.run_until(500);
  world.tracker.finish(500);
  // Only the moved peer (plus possibly its new subtree, briefly) may hiccup.
  EXPECT_LE(world.tracker.peers_with_hiccups(), 4u);
  EXPECT_LE(world.tracker.total_hiccups(), 60);
  // And playback overall continued: hiccups are a tiny fraction of plays.
  EXPECT_GT(world.tracker.total_played(),
            50 * world.tracker.total_hiccups());
}

TEST(Dynamic, RandomChurnSoakKeepsEngineInvariantsAndRecovers) {
  for (const int d : {2, 3}) {
    DynamicWorld world(30, d, ChurnPolicy::kEager, 128);
    util::Prng rng(555);
    Slot now = 0;
    std::vector<PeerId> alive;
    for (NodeKey id = 1; id <= 30; ++id) {
      alive.push_back(world.churn.peer_at(id));
    }
    for (int event = 0; event < 30; ++event) {
      now += 40;
      world.engine.run_until(now);  // throws on any capacity violation
      if (world.churn.n() > 3 && rng.chance(0.5)) {
        const auto idx = static_cast<std::size_t>(rng.below(alive.size()));
        world.remove(alive[idx], now);
      } else {
        world.add(now);
      }
      alive.clear();
      for (NodeKey id = 1; id <= world.churn.n(); ++id) {
        alive.push_back(world.churn.peer_at(id));
      }
      ASSERT_TRUE(validate_forest(world.churn.forest()).ok);
    }
    // Quiet period long enough for the overlay to fully recover, then
    // finalize everyone's playback accounting.
    const Slot end = now + world.margin + 240;
    world.engine.run_until(end);
    world.tracker.finish(end);
    // Hiccups happened (moves are real) but playback dominated.
    EXPECT_GT(world.tracker.total_played(),
              10 * (world.tracker.total_hiccups() + 1))
        << "d=" << d;
  }
}

TEST(Dynamic, LiveEdgeAdvancesWithTime) {
  DynamicWorld world(10, 2, ChurnPolicy::kEager, 32);
  const auto edge0 = world.proto.live_edge();
  world.engine.run_until(50);
  const auto edge1 = world.proto.live_edge();
  EXPECT_GT(edge1, edge0);
  EXPECT_NEAR(static_cast<double>(edge1 - edge0), 50.0, 4.0);
}

TEST(Dynamic, HighestReceivedTracksStream) {
  DynamicWorld world(15, 3, ChurnPolicy::kEager, 32);
  world.engine.run_until(60);
  // Node 1 (interior in T_0, depth 1) has received about 60/3 rounds.
  const auto m = world.proto.highest_received(1, 0);
  EXPECT_GT(m, 15);
  EXPECT_LE(m, 20);
  // And out-of-range queries are safe.
  EXPECT_EQ(world.proto.highest_received(999, 0), -1);
}

}  // namespace
}  // namespace streamcast::multitree
