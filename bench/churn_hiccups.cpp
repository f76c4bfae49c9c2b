// Appendix churn QoS experiment (the paper's second omitted simulation):
// actual playback hiccups under mid-stream churn. The multi-tree overlay
// keeps streaming while peers join and leave; every viewer runs a playback
// buffer and each due packet missing in its slot is one hiccup. Compares
// eager vs lazy maintenance across churn intensities.
#include <iostream>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/metrics/playback.hpp"
#include "src/multitree/analysis.hpp"
#include "src/multitree/churn.hpp"
#include "src/multitree/dynamic.hpp"
#include "src/net/topology.hpp"
#include "src/sim/engine.hpp"
#include "src/util/prng.hpp"
#include "src/util/table.hpp"

namespace {

using namespace streamcast;
using namespace streamcast::multitree;

struct Outcome {
  std::int64_t hiccups = 0;
  std::int64_t played = 0;
  std::size_t affected_peers = 0;
  std::size_t peers = 0;
  std::int64_t moves = 0;
};

Outcome run(NodeKey n0, int d, ChurnPolicy policy, int events,
            sim::Slot inter_event_gap, std::uint64_t seed) {
  const NodeKey capacity = 4 * n0;
  ChurnForest churn(n0, d, policy);
  DynamicMultiTreeProtocol proto(churn);
  net::UniformCluster topo(capacity, d);
  sim::Engine engine(topo, proto);
  const sim::Slot margin = worst_delay_bound(capacity, d) + 2 * d;
  metrics::PeerPlaybackTracker tracker(
      [&churn](NodeKey id) { return churn.peer_at(id); }, margin);
  engine.add_observer(tracker);
  for (NodeKey id = 1; id <= n0; ++id) {
    tracker.peer_seated(churn.peer_at(id), 0, proto.live_edge());
  }

  util::Prng rng(seed);
  sim::Slot now = 0;
  for (int e = 0; e < events; ++e) {
    now += inter_event_gap;
    engine.run_until(now);
    if (churn.n() > 3 && rng.chance(0.5)) {
      const auto id = static_cast<NodeKey>(
          1 + rng.below(static_cast<std::uint64_t>(churn.n())));
      const PeerId victim = churn.peer_at(id);
      tracker.peer_left(victim, now);
      churn.remove(victim);
    } else {
      const PeerId p = churn.add();
      tracker.peer_seated(p, now, proto.live_edge());
    }
    proto.resync(now);
  }
  // Quiet tail: let the overlay settle, then close the books.
  const sim::Slot end = now + margin + 200;
  engine.run_until(end);
  tracker.finish(end);
  return Outcome{tracker.total_hiccups(), tracker.total_played(),
                 tracker.peers_with_hiccups(), tracker.peers_tracked(),
                 churn.stats().total_moves()};
}

}  // namespace

int main() {
  bench::banner("Appendix churn QoS (omitted simulation)",
                "playback hiccups under mid-stream churn, eager vs lazy");

  util::Table table({"N0", "d", "gap (slots)", "policy", "events", "moves",
                     "hiccups", "hiccups/event", "affected peers",
                     "played", "loss rate"});
  const int events = 60;
  for (const int d : {2, 3}) {
    for (const NodeKey n0 : {50, 200}) {
      for (const sim::Slot gap : {20, 80}) {
        for (const auto policy : {ChurnPolicy::kEager, ChurnPolicy::kLazy}) {
          const Outcome o = run(n0, d, policy, events, gap, /*seed=*/31337);
          table.add_row(
              {util::cell(n0), util::cell(d), util::cell(gap),
               policy == ChurnPolicy::kEager ? "eager" : "lazy",
               util::cell(events), util::cell(o.moves),
               util::cell(o.hiccups),
               util::cell(static_cast<double>(o.hiccups) / events, 2),
               util::cell(o.affected_peers) + "/" + util::cell(o.peers),
               util::cell(o.played),
               util::cell(static_cast<double>(o.hiccups) /
                              static_cast<double>(o.played + o.hiccups),
                          4)});
        }
      }
    }
  }
  table.print(std::cout);

  std::cout
      << "\nReading: hiccups track maintenance moves — a moved peer misses "
         "the rounds between its old and new position streams (the paper's "
         "\"lose data delivered before they were moved up / wait longer "
         "because moved down\"). Lazy maintenance, with fewer boundary "
         "restructurings, loses fewer packets at identical churn; loss "
         "rates stay well below 1% of played packets either way, and "
         "streaming never stalls (engine capacity checks hold throughout "
         "the mutations).\n";
  return 0;
}
