// Closed-form replay of the structured multi-tree schedule (DESIGN.md §11).
//
// PR 4's memoized periodic schedule observed that the structured schedule is
// d-periodic: with t = m·d + r, the packet of tree k that position p
// receives at slot m·d + A(p) is k + m·d, where A(p) — the arrival offset —
// is pure position arithmetic, identical across trees. This module takes
// the last step: for lossless kPreRecorded / kLivePrebuffered runs nothing
// about the engine's output depends on per-slot simulation at all, so the
// QoS aggregates of a run over horizon H are computed directly from the
// offsets:
//
//  * per node x and tree k, packets j ≡ k (mod d) arrive at slot
//    j + c_k(x), with the residue constant c_k(x) = A(pos_k(x)) − k
//    (+d in live-prebuffered mode, which starts the same schedule d slots
//    later); the playback delay is a(x) = max(0, max_k c_k(x));
//  * receivers have receive capacity 1, so the maximum buffer occupancy at
//    playback start a is exactly the number of window packets that arrived
//    by slot a: occ(x) = Σ_k #{m : k+md < W, c_k(x) + k + md ≤ a} — a
//    closed form per residue (proved in the tests against the exact
//    metrics::max_buffer_occupancy on the full small-N grid);
//  * transmissions over [0, H) count, per position p, one send per live
//    (non-dummy) tree at every slot ≡ A(p) (mod d) from A(p) on;
//  * the neighbor set of x is its d per-tree parents plus its non-dummy
//    children in the single tree where x is interior, deduplicated.
//
// The result byte-matches the per-slot pump's serialized QosReport at every
// N where the pump is feasible (regression-tested up to N = 10^5). The
// replay is O(N·d) time and O(N_pad) memory, on three threads (the walk
// and two sketch drains, DESIGN.md §11): perfbench's large-world replays
// (N = 10^5..10^6, d = 2..4) run at 11–21 M nodes/s traced, and N = 10^5
// at d = 3 takes 4–6 ms against the pump's 1.1 s, on a 4-core Xeon
// container with GCC 12.2 at -O2.
#pragma once

#include <cstdint>

#include "src/scale/options.hpp"
#include "src/scale/recorder.hpp"
#include "src/sim/packet.hpp"

namespace streamcast::scale {

using sim::NodeKey;
using sim::PacketId;
using sim::Slot;

/// What to replay. Window 0 means the multi-tree default window; the
/// horizon always adds the multi-tree horizon slack. Both come from
/// src/static/envelopes.hpp, as they do for the scheme registry's overlay.
struct ReplayConfig {
  NodeKey n = 0;
  int d = 2;
  /// kLivePrebuffered (schedule shifted by d) instead of kPreRecorded.
  bool prebuffered = false;
  PacketId window = 0;
};

/// The aggregates a QosReport needs, plus the sketched distributions. The
/// double sums accumulate in receiver order 1..n — the exact aggregation
/// order of RunPipeline::aggregate — so averages are bit-identical.
struct ReplayReport {
  Slot worst_delay = 0;
  double average_delay = 0;
  std::size_t max_buffer = 0;
  double average_buffer = 0;
  std::size_t max_neighbors = 0;
  double average_neighbors = 0;
  std::int64_t transmissions = 0;
  /// Horizon the pump would have simulated (QosReport::slots_simulated).
  Slot horizon = 0;
  PacketId window = 0;
  ScaleSummary summary;
};

/// Receivers per chunk the walk hands to the two sketch drains: large
/// enough that a handoff's counter traffic is paid once per 1,024 receivers,
/// small enough that a ring of them sits on the walking thread's stack.
inline constexpr NodeKey kReplayChunk = 1024;

/// Chunks in flight between the walk and the drains (128 KB of values), so
/// neither side waits on the other's momentary stalls.
inline constexpr NodeKey kReplayRing = 8;

/// Replays the structured multi-tree schedule in closed form, on three
/// threads: the calling thread walks the receivers and two std::jthreads
/// feed the delay and occupancy sketches. Throws std::invalid_argument for
/// configs the closed form does not cover (window < d) and
/// util::BudgetExceeded if the O(N_pad) offset table or a sketch would
/// overrun the budget (the delay sketch's error first when both do).
ReplayReport replay_structured(const ReplayConfig& config,
                               const ScaleOptions& options = {});

}  // namespace streamcast::scale
