// Knobs of the million-node scale path (DESIGN.md §11), embedded in
// core::SessionConfig as `scale` and in core::ObserverSpec.
#pragma once

#include <cstddef>

#include "src/sim/packet.hpp"

namespace streamcast::scale {

using sim::NodeKey;

struct ScaleOptions {
  /// Node-count threshold at/above which an eligible session (structured
  /// multi-tree, lossless, kPreRecorded/kLivePrebuffered, no audit) skips
  /// the slot engine entirely and replays the periodic schedule in closed
  /// form. Byte-identical to the pump by construction (regression-tested).
  /// Every reliable single-cluster run at/above it, replayed or pumped,
  /// also returns the sketched summaries (core::RunResult::scale); 0 turns
  /// both off.
  NodeKey replay_threshold = 50'000;
  /// Master switch for the closed-form replay shortcut.
  bool allow_replay = true;
  /// Rank-error bound of the quantile sketches, as a fraction of N.
  double epsilon = 0.005;
  /// Ceiling for per-node state allocations; exceeded => BudgetExceeded
  /// (fail fast, never OOM).
  std::size_t budget_bytes = std::size_t{1} << 31;  // 2 GiB
};

}  // namespace streamcast::scale
