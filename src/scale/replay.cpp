// streamcast: hot-path (lint: hot-path-alloc applies to this file)
#include "src/scale/replay.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

#include "src/static/envelopes.hpp"
#include "src/static/lattice.hpp"
#include "src/util/budget.hpp"

namespace streamcast::scale {

// The lattice arithmetic itself lives in src/static/lattice.hpp (PR 8):
// envelope::Lattice and envelope::arrival_offsets are shared with the
// compile-time proofs and the multi-tree analysis so all three evaluate
// identical formulas.
using Count = envelope::Count;

ReplayReport replay_structured(const ReplayConfig& config,
                               const ScaleOptions& options) {
  const NodeKey n = config.n;
  const int d = config.d;
  if (n < 1) throw std::invalid_argument("n < 1");
  if (d < 1) throw std::invalid_argument("d < 1");

  const envelope::Lattice lat(n, d);
  util::BudgetLedger ledger(util::MemoryBudget{options.budget_bytes});
  ledger.charge("scale/replay-offsets",
                (static_cast<std::size_t>(lat.n_pad) + 1) * sizeof(Slot));
  // lint: allow(hot-path-alloc) — the O(N_pad) table, charged above, once
  const std::vector<Slot> offsets = envelope::arrival_offsets(lat.n_pad, d);

  // The multi-tree run defaults, read where the scheme registry reads them.
  const PacketId window =
      config.window > 0 ? config.window
                        : envelope::multitree_default_window(n, d);
  if (window < d) {
    throw std::invalid_argument(
        "closed-form replay needs window >= d (every residue measured)");
  }
  const Slot horizon = window + envelope::multitree_horizon_slack(n, d);
  const Slot shift = config.prebuffered ? d : 0;

  // Dummy occupancy of the G_d tail positions: tree k places dummy id x at
  // tail offset (x - dI - 1 + k) mod d. Only these d positions ever host a
  // dummy, so the per-position live-tree count is d everywhere else.
  // lint: allow(hot-path-alloc) — d tail counters, sized once
  std::vector<int> tail_dummies(static_cast<std::size_t>(d), 0);
  for (Count x = n + 1; x <= lat.n_pad; ++x) {
    const Count j = x - d * lat.interior - 1;
    for (Count k = 0; k < d; ++k) {
      ++tail_dummies[static_cast<std::size_t>((j + k) % d)];
    }
  }

  // Transmissions: every position p receives one send per live tree at each
  // slot ≡ A(p) (mod d) from A(p) on (shifted wholesale in live-prebuffered
  // mode); dummy targets are skipped by the schedule but their round-robin
  // turn still passes, so they simply subtract from the live-tree count.
  std::int64_t transmissions = 0;
  const Count tail_base = d * lat.interior;
  for (Count pos = 1; pos <= lat.n_pad; ++pos) {
    const int live =
        d - (pos > tail_base
                 ? tail_dummies[static_cast<std::size_t>(pos - tail_base - 1)]
                 : 0);
    const Slot first = offsets[static_cast<std::size_t>(pos)] + shift;
    if (first <= horizon - 1) {
      transmissions += static_cast<std::int64_t>(live) *
                       ((horizon - 1 - first) / d + 1);
    }
  }

  ReplayReport report;
  report.window = window;
  report.horizon = horizon;
  report.transmissions = transmissions;
  report.summary.nodes = n;
  report.summary.epsilon = kSketchEpsilon;
  report.summary.replayed = true;
  report.summary.budget_bytes = options.budget_bytes;

  DistributionSketch delay_sketch(kSketchEpsilon, &ledger);
  DistributionSketch buffer_sketch(kSketchEpsilon, &ledger);

  double delay_sum = 0;
  double buffer_sum = 0;
  double neighbor_sum = 0;
  // lint: allow(hot-path-alloc) — d residue constants, sized once
  std::vector<Slot> residue(static_cast<std::size_t>(d), 0);
  // lint: allow(hot-path-alloc) — the d distinct parents, sized once
  std::vector<NodeKey> parents;
  parents.reserve(static_cast<std::size_t>(d));
  const auto is_parent = [&parents](NodeKey key) {
    return std::find(parents.begin(), parents.end(), key) != parents.end();
  };
  // The sketches take the receivers a chunk at a time, first the delays,
  // then the occupancies, so the two summaries take turns in L1 instead of
  // sharing it. Each still sees receivers 1..n in order.
  std::array<std::int64_t, kReplayChunk> delays;
  std::array<std::int64_t, kReplayChunk> occupancies;
  std::size_t chunked = 0;
  const auto feed_chunk = [&] {
    for (std::size_t i = 0; i < chunked; ++i) delay_sketch.add(delays[i]);
    for (std::size_t i = 0; i < chunked; ++i) buffer_sketch.add(occupancies[i]);
    chunked = 0;
  };
  envelope::LatticeCursor cursor(lat);
  for (NodeKey x = 1; x <= n; ++x, cursor.advance()) {
    // Residue constants c_k = A(pos_k(x)) − k (+shift): packets j ≡ k
    // (mod d) arrive at slot j + c_k. The playback delay is their max,
    // clamped at 0 exactly like DelayRecorder.
    Slot a = 0;
    parents.clear();
    for (int k = 0; k < d; ++k) {
      const Slot c =
          offsets[static_cast<std::size_t>(cursor.position(k))] - k + shift;
      residue[static_cast<std::size_t>(k)] = c;
      a = std::max(a, c);
      const auto parent = static_cast<NodeKey>(cursor.parent(k));
      if (!is_parent(parent)) parents.push_back(parent);
    }
    report.worst_delay = std::max(report.worst_delay, a);
    delay_sum += static_cast<double>(a);

    // Receive capacity 1 makes the occupancy maximum land exactly at the
    // playback start: occ = #{window packets arrived by slot a}, counted
    // residue by residue.
    std::size_t occ = 0;
    for (int k = 0; k < d && k < window; ++k) {
      const Slot num = a - residue[static_cast<std::size_t>(k)] - k;
      if (num < 0) continue;
      const Slot hi = std::min<Slot>((window - 1 - k) / d, num / d);
      occ += static_cast<std::size_t>(hi) + 1;
    }
    report.max_buffer = std::max(report.max_buffer, occ);
    buffer_sum += static_cast<double>(occ);

    delays[chunked] = a;
    occupancies[chunked] = static_cast<std::int64_t>(occ);
    if (++chunked == delays.size()) feed_chunk();

    // Children exist only in the single tree where x is interior; dummies
    // never receive a send. They are distinct positions of that one tree,
    // so only a parent can repeat one.
    std::size_t neighbors = parents.size();
    if (cursor.interior_tree() >= 0) {
      cursor.for_each_child([&](Count child) {
        if (child <= n && !is_parent(static_cast<NodeKey>(child))) {
          ++neighbors;
        }
      });
    }
    report.max_neighbors = std::max(report.max_neighbors, neighbors);
    neighbor_sum += static_cast<double>(neighbors);
  }
  feed_chunk();

  report.average_delay = delay_sum / static_cast<double>(n);
  report.average_buffer = buffer_sum / static_cast<double>(n);
  report.average_neighbors = neighbor_sum / static_cast<double>(n);
  report.summary.delay = delay_sketch.summarize();
  report.summary.buffer = buffer_sketch.summarize();
  report.summary.bytes_peak = ledger.peak();
  return report;
}

}  // namespace streamcast::scale
