// "Not fully connected networks" (appendix), end to end: find two
// interior-disjoint trees on random graphs with the heuristic, then
// actually stream over them and measure the price of generality — the
// per-node uplink the trees demand and the resulting delays, versus the
// complete-graph multi-tree at the same N.
#include <iostream>

#include "bench/bench_util.hpp"
#include "src/core/session.hpp"
#include "src/graph/idt_heuristic.hpp"
#include "src/graph/stream.hpp"
#include "src/metrics/delay.hpp"
#include "src/sim/engine.hpp"
#include "src/util/prng.hpp"
#include "src/util/table.hpp"

namespace {

using namespace streamcast;
using namespace streamcast::graph;

Graph random_connected(Vertex n, double p, util::Prng& rng) {
  Graph g(n);
  for (Vertex a = 0; a < n; ++a) {
    for (Vertex b = a + 1; b < n; ++b) {
      if (rng.chance(p)) g.add_edge(a, b);
    }
  }
  for (Vertex v = 1; v < n; ++v) {
    if (g.neighbors(v).empty()) g.add_edge(0, v);
  }
  return g;
}

}  // namespace

int main() {
  bench::banner("Appendix: streaming on arbitrary graphs",
                "two interior-disjoint trees (heuristic) driven end to end");

  const int trials = 25;
  util::Table table({"|V|", "edge prob", "trees found", "worst delay (avg)",
                     "max uplink (avg)", "uplink = 1 (complete-graph ideal)"});
  util::Prng rng(515);
  for (const Vertex n : {16, 32, 48}) {
    for (const double p : {0.2, 0.4, 0.7}) {
      int found = 0;
      double delay_sum = 0;
      double uplink_sum = 0;
      int unit_uplink = 0;
      for (int t = 0; t < trials; ++t) {
        const Graph g = random_connected(n, p, rng);
        const auto trees = greedy_two_idt(g, 0);
        if (!trees) continue;
        ++found;
        TwoTreeStreamTopology topo(g, 0, *trees);
        TwoTreeStreamProtocol proto(g, 0, *trees);
        sim::Engine engine(topo, proto);
        metrics::DelayRecorder rec(g.size(), 16);
        engine.add_observer(rec);
        engine.run_until(400);
        sim::Slot worst = 0;
        for (Vertex v = 1; v < g.size(); ++v) {
          worst = std::max(worst, *rec.playback_delay(v));
        }
        delay_sum += static_cast<double>(worst);
        uplink_sum += topo.max_required_uplink();
        unit_uplink += topo.max_required_uplink() == 1;
      }
      table.add_row(
          {util::cell(n), util::cell(p, 1),
           util::cell(found) + "/" + util::cell(trials),
           found ? util::cell(delay_sum / found, 1) : std::string("-"),
           found ? util::cell(uplink_sum / found, 2) : std::string("-"),
           util::cell(unit_uplink)});
    }
  }
  table.print(std::cout);

  // Reference: the complete-graph multi-tree at N = 48, d = 2.
  const auto mt = core::run_session(core::SessionConfig{
                      .scheme = core::Scheme::kMultiTreeGreedy,
                      .n = 47,
                      .d = 2})
                      .qos;
  std::cout << "\ncomplete-graph reference (multi-tree, N = 47, d = 2): "
               "worst delay "
            << mt.worst_delay << ", uplink exactly 1 for every node.\n"
            << "Reading: on sparse general graphs interior-disjoint pairs "
               "cost real over-provisioning — minimal CDS interiors have "
               "high fan-out, so a few nodes need several times the stream "
               "rate in uplink (the §1 argument against single trees, "
               "resurfacing). Density buys both existence and, eventually, "
               "flatter trees; the complete graph of §2 is the limit where "
               "uplink 1 suffices for everyone.\n";
  return 0;
}
