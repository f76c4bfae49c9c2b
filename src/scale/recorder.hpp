// The result block of a scale run (DESIGN.md §11).
#pragma once

#include <cstddef>

#include "src/scale/sketch.hpp"
#include "src/sim/packet.hpp"

namespace streamcast::scale {

/// Aggregate result block of a scale run: exact min/max/mean plus sketched
/// quantiles for the playback-delay and buffer-occupancy distributions,
/// and the ledger's memory accounting.
struct ScaleSummary {
  sim::NodeKey nodes = 0;
  double epsilon = 0;
  /// True when the run came from the closed-form schedule replay instead of
  /// the slot engine.
  bool replayed = false;
  std::size_t budget_bytes = 0;
  std::size_t bytes_peak = 0;
  QuantileSummary delay;
  QuantileSummary buffer;
};

}  // namespace streamcast::scale
