// streamcast: hot-path (lint: hot-path-alloc applies to this file)
#include "src/scale/replay.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <limits>
#include <span>
#include <stdexcept>
#include <thread>
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

namespace {

// Chunk counters are ints, the type atomic waits hand straight to a futex.
using ChunkCount = int;

/// What a failed drain reports as drained, so the walk never waits on it.
constexpr ChunkCount kDrainedAll = std::numeric_limits<ChunkCount>::max();

/// Yielding polls of a counter before its waiter sleeps in atomic wait,
/// about 60 µs alone on a core. The next chunk is usually closer than
/// that, and when the scheduler has put two stages on one core, a yield
/// hands it straight to the stage being waited on.
constexpr int kSpinPolls = 256;

/// Stages fed by the walk, in the order their errors are rethrown.
enum Drain : std::size_t { kDelays = 0, kBuffers = 1 };

/// Waits until ready(counter) holds: bounded yielding polls, then atomic
/// wait.
template <class Ready>
void await(const std::atomic<ChunkCount>& counter, Ready ready) {
  ChunkCount seen = counter.load(std::memory_order_acquire);
  for (int poll = 0; poll < kSpinPolls && !ready(seen); ++poll) {
    std::this_thread::yield();
    seen = counter.load(std::memory_order_acquire);
  }
  while (!ready(seen)) {
    counter.wait(seen, std::memory_order_acquire);
    seen = counter.load(std::memory_order_acquire);
  }
}

/// kReplayChunk receivers' delays and occupancies in key order, indexed by
/// Drain. A chunk of size 0 ends the walk.
struct alignas(64) Chunk {
  std::size_t size = 0;
  std::array<std::array<std::int64_t, kReplayChunk>, 2> values;
};

/// The ring between the walk and the two sketch drains. Chunk c sits in
/// slot c mod kReplayRing; the walk refills a slot only once both drains
/// have fed the chunk before it to their sketches, so each sketch sees
/// receivers 1..n in order, whatever the threads' timing. The walk owns
/// `published`, each drain its `drained` counter.
class Handoff {
 public:
  Handoff() = default;
  Handoff(const Handoff&) = delete;
  Handoff& operator=(const Handoff&) = delete;

  /// Appends one receiver; false once a drain has failed.
  bool push(std::int64_t delay, std::int64_t occupancy) {
    Chunk& chunk = slot(published_);
    chunk.values[kDelays][filled_] = delay;
    chunk.values[kBuffers][filled_] = occupancy;
    if (++filled_ < static_cast<std::size_t>(kReplayChunk)) return true;
    publish();
    make_room();
    return !stop_.load(std::memory_order_relaxed);
  }

  /// Publishes what is left and the empty chunk that ends both drains.
  void close() {
    if (closed_) return;
    closed_ = true;
    if (filled_ > 0) {
      publish();
      make_room();
    }
    publish();
  }

  /// One drain's thread: feeds its values of every chunk to its own sketch
  /// until the empty chunk. An error is parked for rethrow(), and the drain
  /// reads as drained to the end and stops the walk.
  void drain(Drain stage, util::BudgetLedger* ledger) {
    Stage& self = stages_[stage];
    try {
      DistributionSketch sketch(kSketchEpsilon, ledger);
      for (ChunkCount c = 0;; ++c) {
        await(published_count_, [c](ChunkCount p) { return p > c; });
        const Chunk& chunk = slot(c);
        if (chunk.size == 0) break;
        for (std::size_t i = 0; i < chunk.size; ++i) {
          sketch.add(chunk.values[stage][i]);
        }
        self.drained.store(c + 1, std::memory_order_release);
        self.drained.notify_one();
      }
      self.summary = sketch.summarize();
    } catch (...) {
      self.error = std::current_exception();
      stop_.store(true, std::memory_order_relaxed);
      self.drained.store(kDrainedAll, std::memory_order_release);
      self.drained.notify_one();
    }
  }

  /// After both drains joined: the delay drain's error, then the buffer's.
  void rethrow() const {
    for (const Stage& stage : stages_) {
      if (stage.error) std::rethrow_exception(stage.error);
    }
  }

  const QuantileSummary& summary(Drain stage) const {
    return stages_[stage].summary;
  }

 private:
  struct alignas(64) Stage {
    std::atomic<ChunkCount> drained{0};
    QuantileSummary summary;
    std::exception_ptr error;
  };

  Chunk& slot(ChunkCount c) {
    return ring_[static_cast<std::size_t>(c) % ring_.size()];
  }

  /// Hands the current slot to the drains.
  void publish() {
    slot(published_).size = filled_;
    filled_ = 0;
    published_count_.store(++published_, std::memory_order_release);
    published_count_.notify_all();
  }

  /// Waits until both drains have left the next slot.
  void make_room() {
    for (const Stage& stage : stages_) {
      await(stage.drained,
            [this](ChunkCount d) { return published_ - d < kReplayRing; });
    }
  }

  std::array<Chunk, kReplayRing> ring_{};
  alignas(64) std::atomic<ChunkCount> published_count_{0};
  std::atomic<bool> stop_{false};
  std::array<Stage, 2> stages_;
  // Read and written by the walking thread only.
  alignas(64) ChunkCount published_ = 0;
  std::size_t filled_ = 0;
  bool closed_ = false;
};

/// Closes the handoff when the walk's scope ends, on every exit path.
/// Declared after the drain threads, it runs before their joins, so a drain
/// never waits on a walk that is gone.
class CloseOnExit {
 public:
  explicit CloseOnExit(Handoff& handoff) : handoff_(handoff) {}
  CloseOnExit(const CloseOnExit&) = delete;
  CloseOnExit& operator=(const CloseOnExit&) = delete;
  ~CloseOnExit() { handoff_.close(); }

 private:
  Handoff& handoff_;
};

/// Transmissions over [0, horizon): every position p receives one send per
/// live tree at each slot ≡ A(p) (mod d) from A(p) on (shifted wholesale in
/// live-prebuffered mode); dummy targets are skipped by the schedule but
/// their round-robin turn still passes, so they simply subtract from the
/// live-tree count.
std::int64_t count_transmissions(const envelope::Lattice& lat,
                                 std::span<const Slot> offsets, Slot shift,
                                 Slot horizon) {
  const Count d = lat.d;
  // Dummy occupancy of the G_d tail positions: tree k places dummy id x at
  // tail offset (x - dI - 1 + k) mod d. Only these d positions ever host a
  // dummy, so the per-position live-tree count is d everywhere else.
  // lint: allow(hot-path-alloc) — d tail counters, sized once
  std::vector<int> tail_dummies(static_cast<std::size_t>(d), 0);
  for (Count x = lat.n + 1; x <= lat.n_pad; ++x) {
    const Count j = x - d * lat.interior - 1;
    for (Count k = 0; k < d; ++k) {
      ++tail_dummies[static_cast<std::size_t>((j + k) % d)];
    }
  }
  std::int64_t transmissions = 0;
  const Count tail_base = d * lat.interior;
  for (Count pos = 1; pos <= lat.n_pad; ++pos) {
    const Count live =
        d - (pos > tail_base
                 ? tail_dummies[static_cast<std::size_t>(pos - tail_base - 1)]
                 : 0);
    const Slot first = offsets[static_cast<std::size_t>(pos)] + shift;
    if (first <= horizon - 1) {
      transmissions += live * ((horizon - 1 - first) / d + 1);
    }
  }
  return transmissions;
}

}  // namespace

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

  ReplayReport report;
  report.window = window;
  report.horizon = horizon;
  report.summary.nodes = n;
  report.summary.epsilon = kSketchEpsilon;
  report.summary.replayed = true;
  report.summary.budget_bytes = options.budget_bytes;

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
  // The walk keeps every double sum, maximum and neighbor count in receiver
  // order on this thread; the delays and occupancies go a chunk at a time
  // to two drains, each feeding its own sketch on its own thread.
  Handoff handoff;
  {
    std::array<std::jthread, 2> drains;
    const CloseOnExit close_on_exit(handoff);
    for (const Drain stage : {kDelays, kBuffers}) {
      drains[stage] = std::jthread(
          [&handoff, &ledger, stage] { handoff.drain(stage, &ledger); });
    }
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
      if (!handoff.push(a, static_cast<std::int64_t>(occ))) break;

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
    // The O(N_pad) sum overlaps the drains' last chunks.
    handoff.close();
    report.transmissions = count_transmissions(lat, offsets, shift, horizon);
  }
  handoff.rethrow();

  report.average_delay = delay_sum / static_cast<double>(n);
  report.average_buffer = buffer_sum / static_cast<double>(n);
  report.average_neighbors = neighbor_sum / static_cast<double>(n);
  report.summary.delay = handoff.summary(kDelays);
  report.summary.buffer = handoff.summary(kBuffers);
  report.summary.bytes_peak = ledger.peak();
  return report;
}

}  // namespace streamcast::scale
