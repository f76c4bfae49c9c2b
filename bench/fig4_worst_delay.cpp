// Figure 4: worst-case startup delay vs number of nodes (N up to 2000) for
// tree degrees 2, 3, 4, 5 — the paper's only simulation plot.
//
// Series are produced from the exact per-node schedule (closed form of the
// round-robin transmission, §2.2.3), which the test suite verifies against
// full engine simulations packet by packet; a handful of grid points are
// re-simulated here as a live cross-check. Expected shape (and the paper's
// conclusion): staircase log_d(N) growth, degrees 2 and 3 nearly tied and
// below degrees 4 and 5 everywhere.
//
// The cross-check simulations — the expensive part of this bench — run one
// core::run_session per grid point on the deterministic parallel sweep
// runner (the registry + RunPipeline reproduce the schedule the hand-rolled
// engine wiring used to, a contract locked by scheme_registry_test).
#include <iostream>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/core/session.hpp"
#include "src/multitree/analysis.hpp"
#include "src/multitree/greedy.hpp"
#include "src/multitree/schedule.hpp"
#include "src/run/sweep.hpp"
#include "src/util/table.hpp"

namespace {

using namespace streamcast;

}  // namespace

int main() {
  bench::banner("Figure 4",
                "worst-case startup delay (# time slots) vs number of nodes");

  util::Table table({"N", "degree 2", "degree 3", "degree 4", "degree 5"});
  for (sim::NodeKey n = 50; n <= 2000; n += 50) {
    std::vector<std::string> row{util::cell(n)};
    for (int d = 2; d <= 5; ++d) {
      const multitree::Forest f = multitree::build_greedy(n, d);
      row.push_back(util::cell(multitree::closed_form_worst_delay(f)));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  std::cout << "\nEngine cross-check at sampled grid points "
               "(closed form == simulated):\n";
  util::Table check({"N", "d", "closed form", "simulated"});
  bool all_match = true;
  struct GridPoint {
    sim::NodeKey n;
    int d;
  };
  std::vector<GridPoint> grid;
  for (const sim::NodeKey n : {100, 650, 1300, 2000}) {
    for (const int d : {2, 5}) {
      grid.push_back({n, d});
    }
  }
  std::vector<core::SessionConfig> tasks;
  for (const GridPoint& p : grid) {
    tasks.push_back({.scheme = core::Scheme::kMultiTreeGreedy,
                     .n = p.n,
                     .d = p.d});
  }
  const auto results = run::run_sweep(tasks);
  run::require_all(results);
  std::vector<sim::Slot> simulated(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    simulated[i] = results[i].qos.worst_delay;
  }
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const multitree::Forest f =
        multitree::build_greedy(grid[i].n, grid[i].d);
    const sim::Slot closed = multitree::closed_form_worst_delay(f);
    all_match = all_match && closed == simulated[i];
    check.add_row({util::cell(grid[i].n), util::cell(grid[i].d),
                   util::cell(closed), util::cell(simulated[i])});
  }
  check.print(std::cout);
  std::cout << (all_match ? "\nall cross-checks match.\n"
                          : "\nMISMATCH — see rows above.\n");

  // The paper's reading of the figure: degrees 2 and 3 are close and
  // dominate higher degrees.
  int deg23_wins = 0;
  int points = 0;
  for (sim::NodeKey n = 50; n <= 2000; n += 50) {
    ++points;
    sim::Slot best23 = 1 << 30;
    sim::Slot best45 = 1 << 30;
    for (const int d : {2, 3}) {
      best23 = std::min(best23, multitree::closed_form_worst_delay(
                                    multitree::build_greedy(n, d)));
    }
    for (const int d : {4, 5}) {
      best45 = std::min(best45, multitree::closed_form_worst_delay(
                                    multitree::build_greedy(n, d)));
    }
    if (best23 <= best45) ++deg23_wins;
  }
  std::cout << "grid points where min(deg 2, deg 3) <= min(deg 4, deg 5): "
            << deg23_wins << "/" << points
            << "  (paper: low degrees dominate)\n";
  return all_match ? 0 : 1;
}
