// streamcast_cli — run any configuration from the command line.
//
//   $ ./examples/streamcast_cli --scheme multi-tree/greedy --n 500 --d 3
//   $ ./examples/streamcast_cli --scheme hypercube --n 500
//   $ ./examples/streamcast_cli --scheme multi-tree/greedy --n 40 --d 2
//         --clusters 9 --D 3 --tc 20
//   $ ./examples/streamcast_cli --scheme multi-tree/greedy --n 200 --d 2
//         --mode pipelined --window 100 --csv
//
// Prints the QoS report (and optionally a per-node CSV of delays) — the
// one-binary front end to the whole library.
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <iostream>
#include <map>
#include <string>

#include "src/core/streamcast.hpp"
#include "src/util/table.hpp"

namespace {

using namespace streamcast;

void usage() {
  std::cerr << "usage: streamcast_cli [options]\n"
               "  --scheme S    scheme registry name (default "
               "multi-tree/greedy):\n";
  for (const scheme::Descriptor& desc : scheme::all()) {
    std::cerr << "                  " << desc.name << '\n';
  }
  std::cerr <<
      "  --n N         receivers (per cluster)       (default 200)\n"
      "  --d D         degree / source capacity      (default 2)\n"
      "  --mode M      prerecorded | prebuffered | pipelined\n"
      "                (single cluster only)\n"
      "  --clusters K  super-tree over K clusters    (default 1)\n"
      "  --D x         backbone degree, K > 1 only   (default 3)\n"
      "  --tc T        inter-cluster latency T_c     (default 10)\n"
      "  --window W    measured packets (0 = auto)\n"
      "  --csv         also print per-node delay CSV (single cluster)\n";
}

}  // namespace

int main(int argc, char** argv) {
  core::SessionConfig cfg{.scheme = core::Scheme::kMultiTreeGreedy,
                          .n = 200,
                          .d = 2};
  bool csv = false;

  const std::map<std::string, multitree::StreamMode> modes{
      {"prerecorded", multitree::StreamMode::kPreRecorded},
      {"prebuffered", multitree::StreamMode::kLivePrebuffered},
      {"pipelined", multitree::StreamMode::kLivePipelined}};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--scheme") {
      try {
        cfg.scheme = core::parse_scheme(value());
      } catch (const std::invalid_argument&) {
        usage();
        return 1;
      }
    } else if (arg == "--n") {
      cfg.n = std::atoi(value());
    } else if (arg == "--d") {
      cfg.d = std::atoi(value());
    } else if (arg == "--mode") {
      const auto it = modes.find(value());
      if (it == modes.end()) {
        usage();
        return 1;
      }
      cfg.mode = it->second;
    } else if (arg == "--clusters") {
      cfg.clusters = std::atoi(value());
    } else if (arg == "--D") {
      cfg.big_d = std::atoi(value());
    } else if (arg == "--tc") {
      cfg.t_c = std::atoi(value());
    } else if (arg == "--window") {
      cfg.window = std::atoi(value());
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown option " << arg << "\n";
      usage();
      return 1;
    }
  }

  try {
    const core::QosReport report = core::run_session(cfg).qos;
    std::cout << report.summary() << '\n'
              << "avg buffer " << util::cell(report.average_buffer, 2)
              << " pkts, avg neighbors "
              << util::cell(report.average_neighbors, 2) << '\n';

    if (csv && cfg.clusters == 1) {
      // Re-run with recorders exposed for a per-node dump.
      std::cout << "\nnode,delay\n";
      if (cfg.scheme == core::Scheme::kMultiTreeGreedy ||
          cfg.scheme == core::Scheme::kMultiTreeStructured) {
        const auto f = cfg.scheme == core::Scheme::kMultiTreeGreedy
                           ? multitree::build_greedy(cfg.n, cfg.d)
                           : multitree::build_structured(cfg.n, cfg.d);
        const auto delays = multitree::closed_form_delays(f);
        for (sim::NodeKey x = 1; x <= cfg.n; ++x) {
          std::cout << x << ',' << delays[static_cast<std::size_t>(x)]
                    << '\n';
        }
      } else if (cfg.scheme == core::Scheme::kHypercube) {
        for (const auto& seg : hypercube::decompose_chain(cfg.n)) {
          for (sim::NodeKey x = seg.first; x < seg.first + seg.receivers();
               ++x) {
            std::cout << x << ',' << seg.playback_delay() << '\n';
          }
        }
      } else {
        std::cout << "(per-node CSV only for multitree/hypercube)\n";
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
