// Overlay planner: pick a scheme from QoS targets using the paper's closed
// forms, then verify the recommendation by simulation.
//
//   $ ./examples/overlay_planner [N] [max startup slots] [max buffer pkts]
//
// Walks the design space of §2-§3: multi-tree degrees 2..5 (with the §2.3
// optimality argument), the hypercube chain, and the d-group hypercube, and
// recommends the cheapest configuration meeting both targets.
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "src/core/streamcast.hpp"
#include "src/util/table.hpp"

namespace {

using namespace streamcast;

struct Candidate {
  core::Scheme scheme;
  int d;
  sim::Slot delay_bound;
  std::size_t buffer_bound;
  std::size_t neighbor_bound;
};

}  // namespace

int main(int argc, char** argv) {
  const core::NodeKey n = argc > 1 ? std::atoi(argv[1]) : 300;
  const sim::Slot max_delay = argc > 2 ? std::atoi(argv[2]) : 25;
  const std::size_t max_buffer =
      argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 8;
  if (n < 1) {
    std::cerr << "usage: overlay_planner [N] [max delay] [max buffer]\n";
    return 1;
  }

  std::cout << "Planning an overlay for N = " << n
            << " receivers; targets: startup <= " << max_delay
            << " slots, buffer <= " << max_buffer << " packets.\n\n";

  std::vector<Candidate> candidates;
  for (int d = 2; d <= 5; ++d) {
    candidates.push_back(
        {core::Scheme::kMultiTreeGreedy, d, multitree::worst_delay_bound(n, d),
         static_cast<std::size_t>(multitree::worst_delay_bound(n, d)),
         static_cast<std::size_t>(2 * d)});
  }
  candidates.push_back({core::Scheme::kHypercube, 1, hypercube::worst_delay(n),
                        2,
                        static_cast<std::size_t>(
                            hypercube::neighbor_bound(n))});
  for (int d = 2; d <= 4; ++d) {
    candidates.push_back({core::Scheme::kHypercubeGrouped, d,
                          hypercube::worst_delay_grouped(n, d), 2,
                          static_cast<std::size_t>(
                              hypercube::neighbor_bound(n / d + 1))});
  }

  util::Table table({"scheme", "d", "delay bound", "buffer bound",
                     "neighbor bound", "meets targets"});
  std::optional<Candidate> pick;
  for (const auto& c : candidates) {
    const bool ok = c.delay_bound <= max_delay && c.buffer_bound <= max_buffer;
    table.add_row({core::scheme_name(c.scheme), util::cell(c.d),
                   util::cell(c.delay_bound), util::cell(c.buffer_bound),
                   util::cell(c.neighbor_bound), ok ? "yes" : "no"});
    // Prefer the feasible candidate with the fewest neighbors, then delay.
    if (ok && (!pick || c.neighbor_bound < pick->neighbor_bound ||
               (c.neighbor_bound == pick->neighbor_bound &&
                c.delay_bound < pick->delay_bound))) {
      pick = c;
    }
  }
  table.print(std::cout);

  if (!pick) {
    std::cout << "\nNo configuration meets both targets; relax one of them "
                 "(the multi-tree delay bound h*d and the hypercube's "
                 "O(log^2 N) are the frontier).\n";
    return 2;
  }

  std::cout << "\nRecommended: " << core::scheme_name(pick->scheme)
            << " with d = " << pick->d << ". Verifying by simulation...\n";
  const core::QosReport r =
      core::run_session(
          core::SessionConfig{.scheme = pick->scheme, .n = n, .d = pick->d})
          .qos;
  std::cout << "  " << r.summary() << "\n";
  const bool verified =
      r.worst_delay <= max_delay && r.max_buffer <= max_buffer;
  std::cout << (verified ? "  targets met.\n"
                         : "  simulation exceeded a target!\n");
  return verified ? 0 : 1;
}
