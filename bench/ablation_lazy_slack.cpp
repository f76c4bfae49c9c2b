// Ablation: the lazy policy's vacancy slack. How long may shrinking be
// deferred? The safe limit is d vacancies — one more and vacant ids reach
// the interior pool {1..dI}, where a vacant forwarder starves its entire
// subtree for as long as the deferral lasts. This experiment (which is how
// the d-cap was discovered; see churn.hpp) streams live through identical
// churn at increasing slack and watches hiccups explode past slack = d.
#include <iostream>

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
  std::int64_t moves = 0;
  std::int64_t rebuilds = 0;
  std::int64_t hiccups = 0;
};

Outcome run(int d, int slack, std::uint64_t seed) {
  const sim::NodeKey n0 = 60;
  const sim::NodeKey capacity = 4 * n0;
  ChurnForest churn(n0, d, ChurnPolicy::kLazy, slack);
  DynamicMultiTreeProtocol proto(churn);
  net::UniformCluster topo(capacity, d);
  sim::Engine engine(topo, proto,
                     sim::EngineOptions{.forbid_duplicates = false});
  const sim::Slot margin = worst_delay_bound(capacity, d) + 2 * d;
  metrics::PeerPlaybackTracker tracker(
      [&churn](sim::NodeKey id) { return churn.peer_at(id); }, margin);
  engine.add_observer(tracker);
  for (sim::NodeKey id = 1; id <= n0; ++id) {
    tracker.peer_seated(churn.peer_at(id), 0, proto.live_edge());
  }

  util::Prng rng(seed);
  sim::Slot now = 0;
  for (int e = 0; e < 80; ++e) {
    now += 30;
    engine.run_until(now);
    // Departure-heavy mix keeps vacancies accumulating.
    if (churn.n() > 5 && rng.chance(0.65)) {
      const auto id = static_cast<sim::NodeKey>(
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
  const sim::Slot end = now + margin + 200;
  engine.run_until(end);
  tracker.finish(end);
  return Outcome{churn.stats().total_moves(), churn.stats().rebuilds,
                 tracker.total_hiccups()};
}

}  // namespace

int main() {
  bench::banner("Ablation: lazy vacancy slack",
                "hiccups vs deferred-shrink slack (safe limit is d)");

  util::Table table({"d", "slack", "safe?", "rebuilds", "moves", "hiccups"});
  for (const int d : {2, 3}) {
    for (const int slack : {d, 2 * d, 4 * d}) {
      const Outcome o = run(d, slack, /*seed=*/4242);
      table.add_row({util::cell(d), util::cell(slack),
                     slack <= d ? "yes" : "NO (interior vacancies)",
                     util::cell(o.rebuilds), util::cell(o.moves),
                     util::cell(o.hiccups)});
    }
  }
  table.print(std::cout);

  std::cout
      << "\nReading: raising the slack past d does buy fewer "
         "restructurings/moves — and pays for them in starvation: a vacant "
         "interior id forwards nothing, so its whole subtree hiccups for "
         "every deferred slot. The deferral knob is only free while vacant "
         "ids stay leaves, i.e. up to exactly d — the maintenance "
         "invariant the lazy policy ships with.\n";
  return 0;
}
