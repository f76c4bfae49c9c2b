// Golden byte-parity cells for the recovery host's flat per-receiver state
// (DESIGN.md §6, §15).
//
// The policy parity cells (policy_parity_cells.hpp) pin the legacy NACK and
// XOR-parity wiring on the multi-tree, hypercube and FEC-on-chain paths.
// These cells cover the recovery paths those leave unpinned:
//
//  * streaming-code on chain and single-tree over Gilbert–Elliott (two-state
//    burst-loss) channels, both inside the code's guaranteed region (every
//    erasure run decodes) and outside it (long bursts and guard-space
//    collisions abandon gaps, and the dense-link relays forward skipped ids);
//  * NACK on the dense-link overlays (chain, single-tree), where the policy
//    detects id skips on every link;
//  * NACK on random-regular and dynamic-trees;
//  * XOR parity over burst channels on the dense-link overlays, where
//    windows hit twice stay unresolved for the whole run.
//
// serialize() predates the streaming code and omits its channel counters,
// so render_recovery_cell() appends them for the streaming-code cells.
//
// Shared between the parity test (policy_layer_test.cpp) and the golden-
// capture utility (policy_golden_capture.cpp), so the cell list cannot drift
// from tests/recovery_state_golden.inc.
#pragma once

#include <sstream>
#include <string>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/report.hpp"

namespace streamcast::core {

struct RecoveryStateCell {
  std::string id;
  SessionConfig cfg;
};

/// The golden rendering of one cell: serialize() plus, for streaming-code
/// cells, the channel-health counters serialize() leaves out.
inline std::string render_recovery_cell(const RecoveryStateCell& cell,
                                        const LossRunResult& r) {
  std::ostringstream os;
  os << serialize(r);
  if (cell.cfg.loss.recovery_policy == "streaming-code") {
    os << "\ncode max_erasure_run=" << r.loss.max_erasure_run
       << " guard_collisions=" << r.loss.guard_collisions
       << " unrecoverable=" << r.loss.unrecoverable;
  }
  return os.str();
}

inline std::vector<RecoveryStateCell> recovery_state_cells() {
  std::vector<RecoveryStateCell> cells;

  // streaming-code: one channel inside the guaranteed region (short, rare
  // bursts against T = 12, B = 4) and one outside it (mean burst 2.5
  // against T = 4, B = 2), on both dense-link overlays.
  const auto code = [](Scheme scheme, NodeKey n, int d, bool inside,
                       std::uint64_t seed) {
    SessionConfig cfg{.scheme = scheme, .n = n, .d = d};
    cfg.window = 96;
    cfg.loss.model = loss::ErasureKind::kGilbertElliott;
    cfg.loss.recovery_policy = "streaming-code";
    cfg.loss.seed = seed;
    if (inside) {
      cfg.loss.ge = {.p_enter = 0.01, .p_recover = 0.9, .loss_good = 0.0,
                     .loss_bad = 1.0};
      cfg.loss.code = {.decode_delay = 12, .burst = 4};
    } else {
      cfg.loss.ge = {.p_enter = 0.04, .p_recover = 0.4, .loss_good = 0.0,
                     .loss_bad = 1.0};
      cfg.loss.code = {.decode_delay = 4, .burst = 2};
    }
    return cfg;
  };
  cells.push_back({"streaming-code chain ge inside",
                   code(Scheme::kChain, 10, 1, true, 0x900e)});
  cells.push_back({"streaming-code chain ge outside",
                   code(Scheme::kChain, 10, 1, false, 0xb10c)});
  cells.push_back({"streaming-code single-tree ge inside",
                   code(Scheme::kSingleTree, 14, 2, true, 0x900d)});
  cells.push_back({"streaming-code single-tree ge outside",
                   code(Scheme::kSingleTree, 14, 2, false, 0xb10c)});

  // NACK with dense-link skip detection (chain, single-tree), and NACK on
  // the randomized overlays.
  const auto nack = [](Scheme scheme, NodeKey n, int d, std::uint64_t seed) {
    SessionConfig cfg{.scheme = scheme, .n = n, .d = d};
    cfg.loss.model = loss::ErasureKind::kBernoulli;
    cfg.loss.rate = 0.05;
    cfg.loss.seed = seed;
    cfg.loss.recovery_policy = "nack";
    return cfg;
  };
  {
    SessionConfig cfg = nack(Scheme::kChain, 12, 1, 0xc4a1);
    cfg.window = 64;
    cells.push_back({"nack chain dense", cfg});
  }
  {
    SessionConfig cfg = nack(Scheme::kSingleTree, 14, 2, 0x7ee5);
    cfg.window = 64;
    cells.push_back({"nack single-tree dense", cfg});
  }
  {
    SessionConfig cfg = nack(Scheme::kRandomRegular, 24, 3, 0x4e6a);
    cfg.seed = 0x7a11;
    cells.push_back({"nack random-regular", cfg});
  }
  {
    SessionConfig cfg = nack(Scheme::kDynamicTrees, 20, 2, 0xd7ee);
    cfg.seed = 0x5eed;
    cells.push_back({"nack dynamic-trees", cfg});
  }
  {
    // Bursty NACK on a dense link: skip ranges wider than one id.
    SessionConfig cfg = nack(Scheme::kChain, 10, 1, 0x6e6e);
    cfg.window = 64;
    cfg.loss.model = loss::ErasureKind::kGilbertElliott;
    cfg.loss.ge = {.p_enter = 0.02, .p_recover = 0.4, .loss_good = 0.0,
                   .loss_bad = 1.0};
    cells.push_back({"nack chain dense ge", cfg});
  }

  // XOR parity over burst channels: single erasures decode, and windows
  // hit twice stay unresolved until max_drain.
  const auto xor_ge = [](Scheme scheme, NodeKey n, int d) {
    SessionConfig cfg{.scheme = scheme, .n = n, .d = d};
    cfg.window = 64;
    cfg.loss.model = loss::ErasureKind::kGilbertElliott;
    cfg.loss.ge = {.p_enter = 0.02, .p_recover = 0.6, .loss_good = 0.0,
                   .loss_bad = 1.0};
    cfg.loss.seed = 0xf0f0;
    cfg.loss.recovery_policy = "xor-parity";
    cfg.loss.fec_window = 6;
    cfg.loss.max_drain = 512;
    return cfg;
  };
  cells.push_back({"xor-parity chain ge", xor_ge(Scheme::kChain, 12, 1)});
  cells.push_back(
      {"xor-parity single-tree ge", xor_ge(Scheme::kSingleTree, 14, 2)});
  return cells;
}

}  // namespace streamcast::core
