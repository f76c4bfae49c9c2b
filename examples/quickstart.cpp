// Quickstart: stream to one cluster with each scheme and compare QoS.
//
//   $ ./examples/quickstart [N] [d]
//
// Demonstrates the one-call public API (core::run_session) and prints
// the paper's Table-1 quantities for every scheme at the chosen size.
#include <cstdlib>
#include <iostream>

#include "src/core/streamcast.hpp"
#include "src/util/table.hpp"

int main(int argc, char** argv) {
  using namespace streamcast;
  const core::NodeKey n = argc > 1 ? std::atoi(argv[1]) : 200;
  const int d = argc > 2 ? std::atoi(argv[2]) : 3;
  if (n < 1 || d < 1) {
    std::cerr << "usage: quickstart [N >= 1] [d >= 1]\n";
    return 1;
  }

  std::cout << "streamcast quickstart: N = " << n << " receivers, d = " << d
            << "\n\n";

  util::Table table({"scheme", "worst delay", "avg delay", "max buffer",
                     "max neighbors", "transmissions"});
  for (const core::Scheme scheme :
       {core::Scheme::kMultiTreeGreedy, core::Scheme::kMultiTreeStructured,
        core::Scheme::kHypercube, core::Scheme::kHypercubeGrouped,
        core::Scheme::kChain, core::Scheme::kSingleTree}) {
    const core::QosReport r =
        core::run_session(core::SessionConfig{.scheme = scheme, .n = n, .d = d})
            .qos;
    table.add_row({r.scheme, util::cell(r.worst_delay),
                   util::cell(r.average_delay, 2), util::cell(r.max_buffer),
                   util::cell(r.max_neighbors),
                   util::cell(r.transmissions)});
  }
  table.print(std::cout);

  std::cout << "\nClosed-form guidance (§2.3): optimal tree degree for N = "
            << n << " is d = " << multitree::optimal_degree(n)
            << " (worst-delay bound " << multitree::worst_delay_bound(n, 2)
            << " slots at d=2, " << multitree::worst_delay_bound(n, 3)
            << " at d=3).\n";
  return 0;
}
