// Related-work experiment: the paper's constructive, packet-level schemes
// vs the fluid-flow lower bounds of Liu et al. (SIGMETRICS 2008) that §1
// cites for contrast. Measures how close each scheme gets to the snowball
// minimum delay — and shows Proposition 1 is optimal: at N = 2^k - 1 the
// hypercube scheme meets the fluid bound with equality.
#include <iostream>

#include "bench/bench_util.hpp"
#include "src/core/session.hpp"
#include "src/fluid/bounds.hpp"
#include "src/util/table.hpp"

int main() {
  using namespace streamcast;
  bench::banner("Fluid-flow gap (related work [12])",
                "measured delays vs the snowball lower bounds");

  util::Table table({"N", "scheme", "d", "worst (elapsed)", "fluid min",
                     "unicast-src min", "gap x", "avg (elapsed)",
                     "fluid avg min"});
  for (const sim::NodeKey n : {63, 255, 1023, 100, 500, 2000}) {
    struct Row {
      core::Scheme scheme;
      int d;
    };
    for (const Row r : {Row{core::Scheme::kMultiTreeGreedy, 2},
                        Row{core::Scheme::kMultiTreeGreedy, 3},
                        Row{core::Scheme::kHypercube, 1},
                        Row{core::Scheme::kChain, 1}}) {
      const auto q = core::run_session(core::SessionConfig{
                         .scheme = r.scheme, .n = n, .d = r.d})
                         .qos;
      // Our reports are start-slot indices; elapsed = +1 (DESIGN.md §3).
      const auto elapsed = q.worst_delay + 1;
      const auto fluid_min = fluid::min_worst_delay(n, r.d);
      table.add_row(
          {util::cell(n), q.scheme, util::cell(r.d), util::cell(elapsed),
           util::cell(fluid_min),
           util::cell(fluid::min_worst_delay_unicast_source(n)),
           util::cell(static_cast<double>(elapsed) /
                          static_cast<double>(fluid_min),
                      2),
           util::cell(q.average_delay + 1.0, 2),
           util::cell(fluid::min_average_delay(n, r.d), 2)});
    }
  }
  table.print(std::cout);

  std::cout
      << "\nReading: at special N = 2^k-1 the hypercube scheme meets the "
         "unicast-source snowball minimum ceil(log2 N)+1 with equality — "
         "Proposition 1 is optimal for sources that emit each packet once. "
         "The multi-tree pays about d/log2(d) over the fluid bound (the "
         "price of O(d) neighbors and strict round-robin); the hypercube "
         "chain at arbitrary N pays an extra log factor; the chain baseline "
         "is off by N/log(N). Liu et al.'s bounds assume neither interior-"
         "disjointness nor bounded source capacity — the \"different "
         "assumptions\" contrast §1 draws.\n";
  return 0;
}
