// Propositions 1-2 and Theorem 4: hypercube-scheme QoS across N — worst
// delay (k at special N, O(log^2 N) for the chain), O(1) buffers, O(log N)
// neighbors, and average delay <= 2*log2(N).
#include <cmath>
#include <iostream>

#include "bench/bench_util.hpp"
#include "src/core/session.hpp"
#include "src/hypercube/analysis.hpp"
#include "src/util/table.hpp"

int main() {
  using namespace streamcast;
  bench::banner("Propositions 1-2 & Theorem 4",
                "hypercube QoS across N: delay, buffers, neighbors, and the "
                "2*log2(N) average bound");

  util::Table table({"N", "special?", "segments", "worst delay",
                     "avg delay", "2*log2(N)", "buffer", "neighbors",
                     "neighbor bound"});
  bool all_ok = true;
  for (const sim::NodeKey n : {3, 7, 15, 31, 63, 127, 255, 511, 1023, 2047,
                               5, 12, 20, 45, 100, 300, 777, 1500, 3000}) {
    const auto r = core::run_session(core::SessionConfig{
                       .scheme = core::Scheme::kHypercube, .n = n, .d = 1})
                       .qos;
    const double bound = hypercube::theorem4_bound(n);
    const auto segments = hypercube::decompose_chain(n).size();
    const bool ok = r.average_delay <= bound + 1e-9 && r.max_buffer <= 2 &&
                    r.max_neighbors <=
                        static_cast<std::size_t>(hypercube::neighbor_bound(n));
    all_ok = all_ok && ok;
    table.add_row({util::cell(n),
                   hypercube::is_special_n(n) ? "yes" : "no",
                   util::cell(segments), util::cell(r.worst_delay),
                   util::cell(r.average_delay, 2), util::cell(bound, 2),
                   util::cell(r.max_buffer), util::cell(r.max_neighbors),
                   util::cell(hypercube::neighbor_bound(n))});
  }
  table.print(std::cout);

  std::cout << "\nd-group variant (source capacity d): bounds scale with "
               "N/d (§3.2):\n";
  util::Table grouped({"N", "d", "worst delay", "avg delay",
                       "2*log2(ceil(N/d))"});
  for (const sim::NodeKey n : {100, 500, 2000}) {
    for (const int d : {2, 3, 4}) {
      const auto r = core::run_session(
                         core::SessionConfig{
                             .scheme = core::Scheme::kHypercubeGrouped,
                             .n = n,
                             .d = d})
                         .qos;
      grouped.add_row(
          {util::cell(n), util::cell(d), util::cell(r.worst_delay),
           util::cell(r.average_delay, 2),
           util::cell(2.0 * std::log2(std::ceil(static_cast<double>(n) / d)),
                      2)});
    }
  }
  grouped.print(std::cout);

  std::cout << (all_ok ? "\nall bounds hold: avg <= 2 log2 N, buffer <= 2, "
                         "neighbors within the closed-form O(log N) bound.\n"
                       : "\nBOUND VIOLATION above.\n");
  return all_ok ? 0 : 1;
}
