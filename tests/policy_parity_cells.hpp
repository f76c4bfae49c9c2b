// Golden byte-parity cells for the policy-layer refactor (DESIGN.md §15).
//
// The recovery strategies (none / NACK / XOR parity) were factored out of
// the monolithic loss::RecoveryProtocol into src/policy, and the fixed
// playback-start slot consumed by metrics/continuity became the `fixed`
// startup policy. Both moves must be byte-invisible: every cell below is a
// fully-specified SessionConfig whose serialized RunResult (the qos line,
// plus the loss line for the lossy cells) was captured from the PRE-refactor
// tree and committed in policy_parity_golden.inc. The parity suite re-runs the
// cells through the policy registry — serially, through run::run_sweep at
// several thread counts, and (for the multicluster cells) at several shard
// counts — and asserts the bytes did not move.
//
// Shared between the parity test and the golden-capture utility
// (policy_golden_capture.cpp), so the cell list cannot drift from the
// goldens. Only config fields that exist on both sides of the refactor are
// used: the legacy RecoveryMode enum (mapped to registry names by the new
// layer) and LossConfig::playback_start (the fixed startup policy's slot).
#pragma once

#include <string>
#include <vector>

#include "src/core/config.hpp"

namespace streamcast::core {

struct PolicyParityCell {
  std::string id;
  SessionConfig cfg;
};

inline std::vector<PolicyParityCell> policy_parity_cells() {
  std::vector<PolicyParityCell> cells;

  // xor-parity (the legacy RecoveryMode::kFec wiring) across schemes, parity
  // window sizes, channel models, and fixed playback starts.
  {
    SessionConfig fec{.scheme = Scheme::kMultiTreeGreedy, .n = 21, .d = 2};
    fec.loss.model = loss::ErasureKind::kBernoulli;
    fec.loss.rate = 0.05;
    fec.loss.seed = 0xfec5;
    fec.loss.recovery = loss::RecoveryMode::kFec;
    cells.push_back({"xor-parity multi-tree/greedy start=worst", fec});
    SessionConfig s0 = fec;
    s0.loss.playback_start = 0;
    cells.push_back({"xor-parity multi-tree/greedy start=0", s0});
    SessionConfig s5 = fec;
    s5.loss.playback_start = 5;
    cells.push_back({"xor-parity multi-tree/greedy start=5", s5});
  }
  {
    SessionConfig fec{.scheme = Scheme::kChain, .n = 12, .d = 1};
    fec.loss.model = loss::ErasureKind::kBernoulli;
    fec.loss.rate = 0.1;
    fec.loss.seed = 0x0dd5;
    fec.loss.recovery = loss::RecoveryMode::kFec;
    fec.loss.fec_window = 4;
    cells.push_back({"xor-parity chain fec_window=4", fec});
  }
  {
    SessionConfig fec{.scheme = Scheme::kSingleTree, .n = 14, .d = 2};
    fec.loss.model = loss::ErasureKind::kBernoulli;
    fec.loss.rate = 0.06;
    fec.loss.seed = 0x51ee;
    fec.loss.recovery = loss::RecoveryMode::kFec;
    fec.loss.playback_start = 2;
    cells.push_back({"xor-parity single-tree start=2", fec});
  }
  {
    SessionConfig ge{.scheme = Scheme::kMultiTreeGreedy, .n = 21, .d = 2};
    ge.loss.model = loss::ErasureKind::kGilbertElliott;
    ge.loss.seed = 0x6e12;
    ge.loss.recovery = loss::RecoveryMode::kFec;
    cells.push_back({"xor-parity multi-tree/greedy ge", ge});
  }

  // Fixed-startup NACK cells: explicit playback_start values exercise the
  // fixed startup policy's configured-slot branch (instead of the worst-
  // delay default) on both schedule families.
  {
    SessionConfig nk{.scheme = Scheme::kMultiTreeStructured,
                     .n = 15,
                     .d = 2,
                     .mode = multitree::StreamMode::kLivePrebuffered};
    nk.loss.model = loss::ErasureKind::kBernoulli;
    nk.loss.rate = 0.08;
    nk.loss.seed = 0xd00d;
    nk.loss.playback_start = 0;
    cells.push_back({"nack multi-tree/structured live-pre start=0", nk});
  }
  {
    SessionConfig nk{.scheme = Scheme::kHypercube, .n = 15, .d = 1};
    nk.loss.model = loss::ErasureKind::kBernoulli;
    nk.loss.rate = 0.08;
    nk.loss.seed = 0xd00d;
    nk.loss.playback_start = 3;
    cells.push_back({"nack hypercube start=3", nk});
  }

  // The 'none' policy: gaps stay open, drain gives up at max_drain, and the
  // incomplete receivers are accounted instead of repaired.
  {
    SessionConfig none{.scheme = Scheme::kChain, .n = 10, .d = 1};
    none.loss.model = loss::ErasureKind::kBernoulli;
    none.loss.rate = 0.05;
    none.loss.seed = 0x5eed;
    none.loss.recovery = loss::RecoveryMode::kNone;
    none.loss.max_drain = 256;
    cells.push_back({"none chain", none});
  }
  return cells;
}

/// Lossless multicluster cells run at shard counts 1..3: the policy layer
/// must leave the sharded path byte-identical (startup defaults to `fixed`,
/// recovery is never wired for lossless runs).
inline std::vector<PolicyParityCell> policy_shard_cells() {
  std::vector<PolicyParityCell> cells;
  for (int shards = 1; shards <= 3; ++shards) {
    SessionConfig mc{.scheme = Scheme::kMultiTreeGreedy,
                     .n = 8,
                     .d = 2,
                     .clusters = 3,
                     .big_d = 3,
                     .t_c = 4,
                     .shards = shards};
    cells.push_back(
        {"fixed-startup multicluster shards=" + std::to_string(shards), mc});
  }
  return cells;
}

}  // namespace streamcast::core
