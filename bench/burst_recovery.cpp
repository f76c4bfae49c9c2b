// Burst-loss recovery: Gilbert–Elliott channels (mean burst length 1..8) at
// a fixed ~5% stationary loss rate, against the three recovery modes.
//
//   none — gaps stay open; measures how much of the stream a burst destroys.
//   nack — retransmission after a modeled NACK round trip; always converges
//          but pays latency per loss.
//   fec  — one XOR parity per window of 8 data packets; decodes a single
//          erasure per (link, window) for free, but bursts longer than one
//          packet per window defeat it.
//
// Exit is nonzero if a NACK run fails to reach a gap-free prefix at every
// receiver (FEC and none legitimately leave gaps — that is the point).
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/core/session.hpp"
#include "src/util/table.hpp"

int main() {
  using namespace streamcast;
  bench::banner("burst recovery",
                "Gilbert–Elliott burst length x recovery mode, multi-tree "
                "d=2, stationary loss ~5%");

  const double stationary = 0.05;
  const double bursts[] = {1.0, 2.0, 4.0, 8.0};
  const policy::RecoveryMode modes[] = {policy::RecoveryMode::kNone,
                                        policy::RecoveryMode::kNack,
                                        policy::RecoveryMode::kFec};

  util::Table table({"burst len", "mode", "drops", "retrans", "parity",
                     "fec decodes", "overhead", "stalls", "stall slots",
                     "undecodable", "gap-free"});
  std::vector<std::string> csv;
  csv.push_back(
      "mean_burst,mode,drops,retransmissions,parity,fec_decodes,overhead,"
      "stalls,stall_slots,undecodable,all_gap_free");
  bool ok = true;

  core::SessionConfig base{
      .scheme = core::parse_scheme("multi-tree/greedy"), .n = 63, .d = 2};
  const core::QosReport plain = core::run_session(base).qos;

  for (const double burst : bursts) {
    // Mean burst length L fixes p_recover = 1/L; the stationary loss rate
    // pi_bad = p_enter / (p_enter + p_recover) then fixes p_enter.
    const double p_recover = 1.0 / burst;
    const double p_enter = stationary * p_recover / (1.0 - stationary);
    for (const policy::RecoveryMode mode : modes) {
      core::SessionConfig cfg = base;
      cfg.loss.model = loss::ErasureKind::kGilbertElliott;
      cfg.loss.ge = {.p_enter = p_enter,
                     .p_recover = p_recover,
                     .loss_good = 0.0,
                     .loss_bad = 1.0};
      cfg.loss.seed = 0xb0057 + static_cast<std::uint64_t>(burst);
      cfg.loss.recovery = mode;
      cfg.loss.fec_window = 8;
      cfg.loss.playback_start = plain.worst_delay;
      // Without repair the drain can never finish; don't wait for it.
      if (mode == policy::RecoveryMode::kNone) cfg.loss.max_drain = 64;
      const core::RunResult r = core::run_session(cfg);

      if (mode == policy::RecoveryMode::kNack && !r.loss->all_gap_free) {
        std::cerr << "FAIL: nack at burst length " << burst
                  << " left a receiver with a gap in its prefix\n";
        ok = false;
      }

      const char* mode_name = policy::recovery_mode_name(mode);
      table.add_row(
          {util::cell(burst, 0), mode_name, util::cell(r.loss->drops),
           util::cell(r.loss->retransmissions),
           util::cell(r.loss->parity_transmissions),
           util::cell(r.loss->fec_decodes),
           util::cell(r.loss->redundancy_overhead, 3),
           util::cell(r.loss->stalls), util::cell(r.loss->stall_slots),
           util::cell(r.loss->undecodable),
           r.loss->all_gap_free ? "yes" : "no"});
      csv.push_back(util::cell(burst, 0) + "," + mode_name + "," +
                    util::cell(r.loss->drops) + "," +
                    util::cell(r.loss->retransmissions) + "," +
                    util::cell(r.loss->parity_transmissions) + "," +
                    util::cell(r.loss->fec_decodes) + "," +
                    util::cell(r.loss->redundancy_overhead, 4) + "," +
                    util::cell(r.loss->stalls) + "," +
                    util::cell(r.loss->stall_slots) + "," +
                    util::cell(r.loss->undecodable) + "," +
                    (r.loss->all_gap_free ? "1" : "0"));
    }
  }
  table.print(std::cout);

  std::cout << "\ncsv:\n";
  for (const std::string& line : csv) std::cout << line << "\n";

  std::cout << "\nNACK always converges to a gap-free prefix regardless of "
               "burst length. FEC's single-parity windows repair scattered "
               "losses (burst 1) nearly for free but degrade as bursts "
               "concentrate multiple erasures into one window; with no "
               "recovery the undecodable column is the stream the bursts "
               "destroyed.\n";
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
