// Figure 2: receiving and sending schedules of node id 6 in the N = 15,
// d = 3 forest, for both constructions — regenerated from an actual engine
// run (not from the closed form), so the printed slots are the simulated
// transmission slots.
#include <iostream>

#include "bench/bench_util.hpp"
#include "src/multitree/greedy.hpp"
#include "src/multitree/protocol.hpp"
#include "src/multitree/structured.hpp"
#include "src/net/topology.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/trace.hpp"
#include "src/util/table.hpp"

namespace {

using namespace streamcast;

void show(const char* name, const multitree::Forest& forest,
          sim::NodeKey node) {
  multitree::MultiTreeProtocol proto(forest);
  net::UniformCluster topo(forest.n(), forest.d());
  sim::Engine engine(topo, proto);
  sim::Trace trace;
  engine.add_observer(trace);
  engine.run_until(12);  // one steady-state period past the warm-up

  std::cout << name << " construction — node id " << node << ":\n";
  util::Table in({"slot", "receives packet", "from", "tree"});
  for (const auto& d : trace.received_by(node)) {
    in.add_row({util::cell(d.received), util::cell(d.tx.packet),
                d.tx.from == 0 ? std::string("S")
                               : std::to_string(d.tx.from),
                "T_" + std::to_string(d.tx.tag)});
  }
  in.print(std::cout);
  util::Table out({"slot", "sends packet", "to", "tree"});
  for (const auto& d : trace.sent_by(node)) {
    out.add_row({util::cell(d.sent), util::cell(d.tx.packet),
                 util::cell(d.tx.to), "T_" + std::to_string(d.tx.tag)});
  }
  out.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main() {
  bench::banner("Figure 2",
                "receive/send schedule of node id 6 (N = 15, d = 3)");
  show("Greedy", multitree::build_greedy(15, 3), 6);
  show("Structured", multitree::build_structured(15, 3), 6);
  std::cout << "Node 6 is interior in T_1 only; it receives one packet per "
               "tree every d = 3 slots (distinct residues mod 3 — the "
               "collision-freedom of §2.2) and forwards only within T_1.\n";
  return 0;
}
