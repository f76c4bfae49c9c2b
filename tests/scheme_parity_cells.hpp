// The registry parity grid: every Scheme x stream mode x {lossless, lossy}
// cell (plus FEC, Gilbert-Elliott, and multi-cluster extras), each one a
// fully-specified SessionConfig. The golden capture in
// scheme_parity_golden.inc was produced by running exactly these cells
// through the pre-refactor StreamingSession dispatch (the 18-arm switches
// that lived in core/session.cpp); the parity suite re-runs them through the
// SchemeRegistry + RunPipeline and asserts the serialized reports are
// byte-identical.
//
// Shared between the parity test and the (offline) golden-capture program,
// so the cell list cannot drift from the goldens.
#pragma once

#include <string>
#include <vector>

#include "src/core/config.hpp"

namespace streamcast::core {

struct ParityCell {
  std::string id;
  SessionConfig cfg;
};

inline std::vector<ParityCell> parity_cells() {
  std::vector<ParityCell> cells;

  struct SchemePoint {
    Scheme scheme;
    const char* name;
    NodeKey n;
    int d;
  };
  const SchemePoint points[] = {
      {Scheme::kMultiTreeStructured, "multi-tree/structured", 21, 2},
      {Scheme::kMultiTreeGreedy, "multi-tree/greedy", 21, 2},
      {Scheme::kHypercube, "hypercube", 21, 1},
      {Scheme::kHypercubeGrouped, "hypercube/grouped", 20, 2},
      {Scheme::kChain, "chain", 12, 1},
      {Scheme::kSingleTree, "single-tree", 14, 2},
  };
  const struct {
    multitree::StreamMode mode;
    const char* name;
  } modes[] = {
      {multitree::StreamMode::kPreRecorded, "pre"},
      {multitree::StreamMode::kLivePrebuffered, "live-pre"},
      {multitree::StreamMode::kLivePipelined, "live-pipe"},
  };

  // The full cross: scheme x mode x {lossless, lossy-NACK}. Schemes that
  // stream pre-recorded data ignore the mode; their mode cells locking onto
  // the same golden is itself part of the contract.
  for (const SchemePoint& p : points) {
    for (const auto& m : modes) {
      SessionConfig base{.scheme = p.scheme, .n = p.n, .d = p.d,
                         .mode = m.mode};
      cells.push_back({std::string(p.name) + " mode=" + m.name + " loss=none",
                       base});
      SessionConfig lossy = base;
      lossy.loss.model = loss::ErasureKind::kBernoulli;
      lossy.loss.rate = 0.08;
      lossy.loss.seed = 0xd00d;
      cells.push_back({std::string(p.name) + " mode=" + m.name + " loss=nack",
                       lossy});
    }
  }

  // FEC repair cells.
  {
    SessionConfig fec{.scheme = Scheme::kMultiTreeGreedy, .n = 21, .d = 2};
    fec.loss.model = loss::ErasureKind::kBernoulli;
    fec.loss.rate = 0.05;
    fec.loss.seed = 0xfec5;
    fec.loss.recovery = policy::RecoveryMode::kFec;
    cells.push_back({"multi-tree/greedy mode=pre loss=fec", fec});
    fec.scheme = Scheme::kChain;
    fec.n = 12;
    fec.d = 1;
    cells.push_back({"chain mode=pre loss=fec", fec});
  }

  // Gilbert-Elliott bursty channel.
  {
    SessionConfig ge{.scheme = Scheme::kChain, .n = 12, .d = 1};
    ge.loss.model = loss::ErasureKind::kGilbertElliott;
    ge.loss.seed = 0x6e11;
    cells.push_back({"chain mode=pre loss=ge", ge});
  }

  // NOTE: the randomized/dynamic schemes (random-regular, dynamic-trees)
  // are deliberately absent. They never existed in the pre-refactor 18-arm
  // dispatch, so there is nothing to hold parity against; and a byte-golden
  // would lock the exact seeded PRNG draw *sequence*, so any
  // behavior-preserving change (an extra tie-break candidate, a reordered
  // scan) would invalidate the capture without signaling a real regression.
  // They get invariant cells instead — see randomized_invariant_cells()
  // below and tests/scheme_differential_test.cpp, which assert
  // seed-determinism, audit-envelope satisfaction, and audited/unaudited
  // byte-identity rather than fixed bytes.

  // Multi-cluster super-tree composition (both supported intra schemes).
  cells.push_back({"multi-tree/greedy clusters=3",
                   SessionConfig{.scheme = Scheme::kMultiTreeGreedy,
                                 .n = 8,
                                 .d = 2,
                                 .clusters = 3,
                                 .big_d = 3,
                                 .t_c = 4}});
  cells.push_back({"hypercube clusters=4",
                   SessionConfig{.scheme = Scheme::kHypercube,
                                 .n = 7,
                                 .d = 1,
                                 .clusters = 4,
                                 .big_d = 3,
                                 .t_c = 5}});
  return cells;
}

/// Non-golden cells for the seeded randomized/dynamic schemes, mirroring the
/// parity grid's mode x {lossless, lossy} cross at one (n, d, seed) point
/// each. The differential suite runs these under invariant assertions
/// (determinism across thread counts and repeats, audited == unaudited,
/// envelope satisfaction) instead of comparing against captured bytes — see
/// the note above parity_cells()'s multi-cluster section for why.
inline std::vector<ParityCell> randomized_invariant_cells() {
  std::vector<ParityCell> cells;
  const struct {
    Scheme scheme;
    const char* name;
  } points[] = {
      {Scheme::kRandomRegular, "random-regular"},
      {Scheme::kDynamicTrees, "dynamic-trees"},
  };
  const struct {
    multitree::StreamMode mode;
    const char* name;
  } modes[] = {
      {multitree::StreamMode::kPreRecorded, "pre"},
      {multitree::StreamMode::kLivePrebuffered, "live-pre"},
      {multitree::StreamMode::kLivePipelined, "live-pipe"},
  };
  for (const auto& p : points) {
    for (const auto& m : modes) {
      SessionConfig base{.scheme = p.scheme, .n = 30, .d = 2, .mode = m.mode};
      base.seed = 0xd1ce;
      cells.push_back(
          {std::string(p.name) + " mode=" + m.name + " loss=none", base});
      SessionConfig lossy = base;
      lossy.loss.model = loss::ErasureKind::kBernoulli;
      lossy.loss.rate = 0.08;
      lossy.loss.seed = 0xd00d;
      cells.push_back(
          {std::string(p.name) + " mode=" + m.name + " loss=nack", lossy});
    }
  }
  return cells;
}

}  // namespace streamcast::core
