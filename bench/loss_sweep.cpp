// Loss-rate sweep: every scheme of the paper, plus the related-work
// random-regular and dynamic-trees overlays, over Bernoulli erasure links
// with NACK repair, at loss rates {0, 1%, 5%, 10%}.
//
// The paper's delay/buffer results assume reliable links; this bench shows
// what each schedule costs to keep correct when links erase packets — repair
// traffic (redundancy overhead), playback stalls past the lossless playback
// delay, and the extra drain time until every receiver's prefix is gap-free.
//
// Exit is nonzero if (a) any recovery run leaves a receiver with a gap in
// its prefix, or (b) the p = 0 run differs in ANY QosReport field from the
// plain lossless engine — the bit-identical regression that pins the
// recovery decorator to zero cost on reliable links.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/core/session.hpp"
#include "src/util/table.hpp"

int main() {
  using namespace streamcast;
  bench::banner("loss sweep",
                "Bernoulli erasures x scheme, NACK recovery "
                "(rates 0 / 0.01 / 0.05 / 0.1)");

  // Rows name schemes by their canonical registry names; core::parse_scheme
  // resolves them, so a typo fails at startup instead of benchmarking the
  // wrong scheme.
  const struct {
    const char* label;
    const char* scheme;
    sim::NodeKey n;
    int d;
  } schemes[] = {
      {"multi-tree d=2", "multi-tree/greedy", 63, 2},
      {"multi-tree d=3", "multi-tree/greedy", 63, 3},
      {"hypercube", "hypercube", 63, 1},
      {"single-tree d=2", "single-tree", 63, 2},
      {"random-regular d=2", "random-regular", 63, 2},
      {"random-regular d=3", "random-regular", 63, 3},
      {"dynamic-trees d=2", "dynamic-trees", 63, 2},
      {"dynamic-trees d=3", "dynamic-trees", 63, 3},
  };
  const double rates[] = {0.0, 0.01, 0.05, 0.1};

  util::Table table({"scheme", "p", "worst delay", "avg delay", "buffer",
                     "drops", "retrans", "overhead", "stalls", "stall slots",
                     "drain"});
  std::vector<std::string> csv;
  csv.push_back(
      "scheme,p,worst_delay,avg_delay,max_buffer,drops,retransmissions,"
      "overhead,stalls,stall_slots,drain_slots");
  bool ok = true;

  for (const auto& s : schemes) {
    core::SessionConfig cfg{
        .scheme = core::parse_scheme(s.scheme), .n = s.n, .d = s.d};
    const core::QosReport plain = core::run_session(cfg).qos;

    for (const double p : rates) {
      cfg.loss.model = loss::ErasureKind::kBernoulli;
      cfg.loss.rate = p;
      cfg.loss.seed = 0x10557 + static_cast<std::uint64_t>(p * 1000);
      // Stalls are measured against the lossless playback delay: a zero
      // count means loss cost no extra startup delay at all.
      cfg.loss.playback_start = plain.worst_delay;
      const core::RunResult r = core::run_session(cfg);

      if (!r.loss->all_gap_free) {
        std::cerr << "FAIL: " << s.label << " at p=" << p
                  << " left a receiver with a gap in its prefix\n";
        ok = false;
      }
      if (p == 0.0) {
        const core::QosReport& q = r.qos;
        if (q.worst_delay != plain.worst_delay ||
            q.average_delay != plain.average_delay ||
            q.max_buffer != plain.max_buffer ||
            q.average_buffer != plain.average_buffer ||
            q.max_neighbors != plain.max_neighbors ||
            q.average_neighbors != plain.average_neighbors ||
            q.transmissions != plain.transmissions || q.drops != 0 ||
            q.retransmissions != 0) {
          std::cerr << "FAIL: " << s.label
                    << " at p=0 is not bit-identical to the lossless run\n"
                    << "  lossless: " << plain.summary() << "\n"
                    << "  p=0 run:  " << q.summary() << "\n";
          ok = false;
        }
      }

      table.add_row({s.label, util::cell(p, 2), util::cell(r.qos.worst_delay),
                     util::cell(r.qos.average_delay, 1),
                     util::cell(r.qos.max_buffer), util::cell(r.loss->drops),
                     util::cell(r.loss->retransmissions),
                     util::cell(r.loss->redundancy_overhead, 3),
                     util::cell(r.loss->stalls),
                     util::cell(r.loss->stall_slots),
                     util::cell(r.loss->drain_slots)});
      csv.push_back(std::string(s.label) + "," + util::cell(p, 2) + "," +
                    util::cell(r.qos.worst_delay) + "," +
                    util::cell(r.qos.average_delay, 2) + "," +
                    util::cell(r.qos.max_buffer) + "," +
                    util::cell(r.loss->drops) + "," +
                    util::cell(r.loss->retransmissions) + "," +
                    util::cell(r.loss->redundancy_overhead, 4) + "," +
                    util::cell(r.loss->stalls) + "," +
                    util::cell(r.loss->stall_slots) + "," +
                    util::cell(r.loss->drain_slots));
    }
  }
  table.print(std::cout);

  std::cout << "\ncsv:\n";
  for (const std::string& line : csv) std::cout << line << "\n";

  std::cout << "\nAt p = 0 every scheme is bit-identical to the lossless "
               "engine (checked above). As p grows, repair traffic rides on "
               "one extra send/recv slot of provisioned headroom; stalls "
               "count the playback hiccups past the lossless playback delay "
               "a(i) — a receiver with zero stalls pays loss no delay at "
               "all.\n";
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
