// Million-node scale subsystem tests (DESIGN.md §11): GK sketch accuracy
// against exact ranks and exact output against a three-pass reference
// model, budget fail-fast, the structured placement inverse, and the
// closed-form replay's byte-identity with the per-slot pump.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/session.hpp"
#include "src/multitree/structured.hpp"
#include "src/scale/replay.hpp"
#include "src/scale/sketch.hpp"
#include "src/static/envelopes.hpp"
#include "src/static/lattice.hpp"
#include "src/util/budget.hpp"

namespace streamcast {
namespace {

using core::QosReport;
using core::Scheme;
using core::SessionConfig;
using core::replay_eligible;
using core::run_session;
using sim::NodeKey;

// --- GK sketch -------------------------------------------------------------

/// Deterministic 64-bit mix (splitmix64 step) — pseudo-random-looking input
/// without <random>, which the determinism lint bans.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Asserts quantile(q) is within epsilon*n ranks of the target for every q
/// in a probe set: the returned value's rank interval [lo+1, hi] (ties
/// included) must intersect [r - eps*n, r + eps*n].
void check_ranks(scale::GkSketch& sketch, std::vector<std::int64_t> data,
                 double epsilon) {
  std::sort(data.begin(), data.end());
  const auto n = static_cast<std::int64_t>(data.size());
  const auto tolerance =
      static_cast<std::int64_t>(epsilon * static_cast<double>(n));
  for (const double q : {0.0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0}) {
    const std::int64_t v = sketch.quantile(q);
    std::int64_t r = static_cast<std::int64_t>(
        std::ceil(q * static_cast<double>(n)));
    r = std::clamp<std::int64_t>(r, 1, n);
    const auto lo = std::lower_bound(data.begin(), data.end(), v) -
                    data.begin();  // elements < v
    const auto hi = std::upper_bound(data.begin(), data.end(), v) -
                    data.begin();  // elements <= v
    EXPECT_LE(lo + 1, r + tolerance) << "q=" << q << " v=" << v;
    EXPECT_GE(hi, r - tolerance) << "q=" << q << " v=" << v;
  }
}

TEST(GkSketch, RankAccuracyAcrossDistributions) {
  constexpr std::int64_t kN = 10'000;
  for (const double epsilon : {0.05, 0.01, 0.005}) {
    std::vector<std::int64_t> ascending;
    std::vector<std::int64_t> descending;
    std::vector<std::int64_t> shuffled;
    std::vector<std::int64_t> heavy;
    for (std::int64_t i = 0; i < kN; ++i) {
      ascending.push_back(i);
      descending.push_back(kN - i);
      shuffled.push_back(static_cast<std::int64_t>(mix(
          static_cast<std::uint64_t>(i)) % 1000));
      // Mostly-constant with a sparse heavy tail: the shape of playback
      // delays in a structured forest.
      heavy.push_back(i % 97 == 0 ? 1000 + i : 7);
    }
    for (auto* data : {&ascending, &descending, &shuffled, &heavy}) {
      scale::GkSketch sketch(epsilon);
      for (const std::int64_t v : *data) sketch.add(v);
      ASSERT_EQ(sketch.count(), kN);
      check_ranks(sketch, *data, epsilon);
    }
  }
}

TEST(GkSketch, MinMaxAreExact) {
  scale::GkSketch sketch(0.01);
  std::vector<std::int64_t> data;
  for (std::int64_t i = 0; i < 5'000; ++i) {
    data.push_back(static_cast<std::int64_t>(mix(
        static_cast<std::uint64_t>(i)) % 100'000) - 50'000);
    sketch.add(data.back());
  }
  std::sort(data.begin(), data.end());
  EXPECT_EQ(sketch.quantile(0.0), data.front());
  EXPECT_EQ(sketch.quantile(1.0), data.back());
}

TEST(GkSketch, SummaryStaysSublinear) {
  scale::GkSketch sketch(0.01);
  for (std::int64_t i = 0; i < 100'000; ++i) {
    sketch.add(static_cast<std::int64_t>(mix(static_cast<std::uint64_t>(i))));
  }
  (void)sketch.quantile(0.5);  // flush
  // O((1/eps) * log(eps * n)) ~ a few hundred tuples; 100k inserts must not
  // degenerate toward linear storage.
  EXPECT_LT(sketch.summary_size(), 2'000u);
}

/// The flush GkSketch used before it worked in place, kept as the reference
/// model of its exact output: a forward merge into a fresh array (on equal
/// values the summary tuple first), a right-to-left compress into another,
/// and a reverse. The ledger figure is the summary's capacity, which the
/// compress array's reserve() makes exactly summary + batch, plus the
/// buffer's capacity.
class ReferenceGk {
 public:
  ReferenceGk(double epsilon, util::BudgetLedger* ledger)
      : epsilon_(epsilon),
        ledger_(ledger),
        batch_(std::max<std::size_t>(
            16, static_cast<std::size_t>(std::floor(1.0 / (2.0 * epsilon))))) {}

  void add(std::int64_t v) {
    buffer_.push_back(v);
    if (buffer_.size() >= batch_) flush();
  }

  std::int64_t quantile(double q) {
    flush();
    const std::int64_t r = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n_))), 1,
        n_);
    const auto tolerance = static_cast<std::int64_t>(
        std::floor(epsilon_ * static_cast<double>(n_)));
    std::int64_t rmin = 0;
    std::int64_t best_v = summary_.front().v;
    std::int64_t best_dist = std::numeric_limits<std::int64_t>::max();
    for (const Tuple& t : summary_) {
      rmin += t.g;
      const std::int64_t rmax = rmin + t.delta;
      if (r - rmin <= tolerance && rmax - r <= tolerance) return t.v;
      const std::int64_t mid = (rmin + rmax) / 2;
      const std::int64_t dist = mid > r ? mid - r : r - mid;
      if (dist < best_dist) {
        best_dist = dist;
        best_v = t.v;
      }
    }
    return best_v;
  }

  std::size_t summary_size() const { return summary_.size(); }

 private:
  struct Tuple {
    std::int64_t v = 0;
    std::int64_t g = 0;
    std::int64_t delta = 0;
  };

  void flush() {
    if (buffer_.empty()) return;
    std::sort(buffer_.begin(), buffer_.end());
    n_ += static_cast<std::int64_t>(buffer_.size());
    const auto max_err = static_cast<std::int64_t>(
        std::floor(2.0 * epsilon_ * static_cast<double>(n_)));
    const std::int64_t interior = std::max<std::int64_t>(0, max_err - 1);
    std::vector<Tuple> merged;
    std::size_t si = 0;
    std::size_t bi = 0;
    while (si < summary_.size() || bi < buffer_.size()) {
      if (si == summary_.size() ||
          (bi < buffer_.size() && buffer_[bi] < summary_[si].v)) {
        const bool extreme = merged.empty() || (si == summary_.size() &&
                                                bi + 1 == buffer_.size());
        const std::int64_t delta = extreme ? 0 : interior;
        merged.push_back(Tuple{.v = buffer_[bi], .g = 1, .delta = delta});
        ++bi;
      } else {
        merged.push_back(summary_[si++]);
      }
    }
    buffer_.clear();
    std::vector<Tuple> compressed;
    compressed.reserve(merged.size());
    Tuple carry = merged.back();
    for (std::size_t i = merged.size() - 1; i-- > 0;) {
      const Tuple& cur = merged[i];
      if (i != 0 && cur.g + carry.g + carry.delta <= max_err) {
        carry.g += cur.g;
      } else {
        compressed.push_back(carry);
        carry = cur;
      }
    }
    compressed.push_back(carry);
    std::reverse(compressed.begin(), compressed.end());
    summary_ = std::move(compressed);
    const std::size_t bytes = summary_.capacity() * sizeof(Tuple) +
                              buffer_.capacity() * sizeof(std::int64_t);
    if (bytes > charged_) {
      ledger_->charge("reference", bytes - charged_);
      charged_ = bytes;
    }
  }

  double epsilon_;
  util::BudgetLedger* ledger_;
  std::size_t batch_;
  std::int64_t n_ = 0;
  std::vector<Tuple> summary_;
  std::vector<std::int64_t> buffer_;
  std::size_t charged_ = 0;
};

/// Feeds `length` values `value(i, draw)` to a GkSketch and a ReferenceGk
/// and asserts exact agreement. With a nonzero `period` it queries at every
/// period-th insert, which also flushes partial batches.
template <class ValueOf>
void expect_matches_reference(double epsilon, std::int64_t length,
                              std::uint64_t stream, std::int64_t period,
                              ValueOf value) {
  util::BudgetLedger ledger(util::MemoryBudget{});
  util::BudgetLedger reference_ledger(util::MemoryBudget{});
  scale::GkSketch sketch(epsilon, &ledger);
  ReferenceGk reference(epsilon, &reference_ledger);
  for (std::int64_t i = 1; i <= length; ++i) {
    const std::uint64_t draw =
        mix(stream * 1'000'003 + static_cast<std::uint64_t>(i));
    const std::int64_t v = value(i, draw);
    sketch.add(v);
    reference.add(v);
    if (period != 0 && i % period == 0) {
      const double q = static_cast<double>(draw % 101) / 100.0;
      ASSERT_EQ(sketch.quantile(q), reference.quantile(q))
          << "stream=" << stream << " eps=" << epsilon << " i=" << i;
      ASSERT_EQ(sketch.summary_size(), reference.summary_size())
          << "stream=" << stream << " i=" << i;
    }
  }
  for (const double q : {0.0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0}) {
    ASSERT_EQ(sketch.quantile(q), reference.quantile(q))
        << "stream=" << stream << " eps=" << epsilon << " length=" << length
        << " q=" << q;
  }
  ASSERT_EQ(sketch.summary_size(), reference.summary_size())
      << "stream=" << stream;
  ASSERT_EQ(ledger.peak(), reference_ledger.peak()) << "stream=" << stream;
}

TEST(GkSketch, MatchesThreePassReferenceExactly) {
  // Exact tuples, not just ε-ranks: the replay's digests pin the sketch's
  // quantiles, so the tie rule, the Δ = 0 extremes and the ledger figure
  // must all match the reference. Every third stream never queries before
  // its end; the others query at a stream-specific period. The ranges
  // cover a constant stream and both sides of the counting-sort cutoff.
  constexpr auto kValues =
      static_cast<std::int64_t>(scale::GkSketch::kCountingSortValues);
  std::uint64_t stream = 0;
  for (const double epsilon : {0.001, 0.005, 0.01, 0.05, 0.2, 0.49}) {
    for (const std::int64_t range : {std::int64_t{1}, std::int64_t{2},
                                     std::int64_t{3}, std::int64_t{50},
                                     kValues - 1, kValues, kValues + 1,
                                     std::int64_t{1'000},
                                     std::int64_t{1'000'000}}) {
      for (const std::int64_t length : {1, 100, 4'321, 200'000}) {
        ++stream;
        const std::int64_t period =
            stream % 3 == 0
                ? 0
                : 1 + static_cast<std::int64_t>(mix(stream) % 2'000);
        const auto span = static_cast<std::uint64_t>(range);
        expect_matches_reference(
            epsilon, length, stream, period,
            [&](std::int64_t, std::uint64_t draw) {
              return static_cast<std::int64_t>(draw % span) - range / 3;
            });
      }
    }
  }
  // Batches holding both ends of int64: a range check that overflowed
  // would pick the counting sort here.
  for (const std::int64_t period : {0, 37}) {
    ++stream;
    expect_matches_reference(
        0.005, 20'000, stream, period,
        [](std::int64_t i, std::uint64_t draw) {
          switch (i % 4) {
            case 0: return std::numeric_limits<std::int64_t>::min();
            case 1: return std::numeric_limits<std::int64_t>::max();
            default: return static_cast<std::int64_t>(draw % 7) - 3;
          }
        });
  }
}

TEST(GkSketch, RejectsQuantileOutsideUnitInterval) {
  scale::GkSketch sketch(0.01);
  for (std::int64_t i = 0; i < 10; ++i) sketch.add(i);
  EXPECT_THROW((void)sketch.quantile(-0.01), std::invalid_argument);
  EXPECT_THROW((void)sketch.quantile(1.01), std::invalid_argument);
  EXPECT_THROW((void)sketch.quantile(std::nan("")), std::invalid_argument);
  EXPECT_EQ(sketch.quantile(1.0), 9);
}

TEST(DistributionSketch, MomentsMatchExactArithmetic) {
  scale::DistributionSketch sketch(0.01);
  std::int64_t mn = std::numeric_limits<std::int64_t>::max();
  std::int64_t mx = std::numeric_limits<std::int64_t>::min();
  double sum = 0;
  constexpr std::int64_t kN = 10'000;
  for (std::int64_t i = 0; i < kN; ++i) {
    const auto v = static_cast<std::int64_t>(
        mix(static_cast<std::uint64_t>(i)) % 1'000'000);
    sketch.add(v);
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    sum += static_cast<double>(v);  // same feed order => identical double sum
  }
  const scale::QuantileSummary s = sketch.summarize();
  EXPECT_EQ(s.count, kN);
  EXPECT_EQ(s.min, mn);
  EXPECT_EQ(s.max, mx);
  EXPECT_EQ(s.mean, sum / static_cast<double>(kN));
}

// --- memory budget ---------------------------------------------------------

TEST(Budget, ChargesAndReleases) {
  util::BudgetLedger ledger(util::MemoryBudget{1000});
  ledger.charge("a", 600);
  EXPECT_EQ(ledger.used(), 600u);
  ledger.release(200);
  ledger.charge("b", 500);
  EXPECT_EQ(ledger.used(), 900u);
  EXPECT_EQ(ledger.peak(), 900u);
}

TEST(Budget, FailsFastWithComponent) {
  util::BudgetLedger ledger(util::MemoryBudget{1000});
  ledger.charge("warm-up", 800);
  try {
    ledger.charge("scale/delay-recorder", 300);
    FAIL() << "expected BudgetExceeded";
  } catch (const util::BudgetExceeded& e) {
    EXPECT_EQ(e.component(), "scale/delay-recorder");
    EXPECT_EQ(e.requested(), 300u);
    EXPECT_EQ(e.used(), 800u);
    EXPECT_EQ(e.limit(), 1000u);
    EXPECT_NE(std::string(e.what()).find("scale/delay-recorder"),
              std::string::npos);
  }
  // The failed charge must not be recorded.
  EXPECT_EQ(ledger.used(), 800u);
}

TEST(Budget, ConcurrentChargesNeverOvercommit) {
  // The replay's two sketch drains charge one ledger from two threads.
  util::BudgetLedger ledger(util::MemoryBudget{200'000});
  std::atomic<int> charged{0};
  std::atomic<int> refused{0};
  {
    std::array<std::jthread, 4> workers;
    for (std::jthread& worker : workers) {
      worker = std::jthread([&ledger, &charged, &refused] {
        for (int i = 0; i < 10'000; ++i) {
          try {
            ledger.charge("test/concurrent", 8);
            ++charged;
          } catch (const util::BudgetExceeded&) {
            ++refused;
          }
        }
      });
    }
  }
  EXPECT_EQ(charged.load(), 25'000);
  EXPECT_EQ(refused.load(), 15'000);
  EXPECT_EQ(ledger.used(), 200'000u);
  EXPECT_EQ(ledger.peak(), 200'000u);
}

TEST(Budget, SessionFailsFastNeverOoms) {
  // A budget far below the recorder footprint: the session must throw
  // BudgetExceeded from allocation accounting, not OOM.
  SessionConfig cfg{.scheme = Scheme::kMultiTreeStructured, .n = 511, .d = 3};
  cfg.scale.budget_bytes = 10'000;
  cfg.scale.allow_replay = false;
  EXPECT_THROW((void)run_session(cfg), util::BudgetExceeded);
}

// --- structured placement inverse ------------------------------------------

TEST(StructuredNodeAt, InvertsStructuredPositionEverywhere) {
  for (const NodeKey n : {1, 2, 3, 5, 7, 12, 16, 27, 40, 63, 100, 121}) {
    for (const int d : {1, 2, 3, 4, 5}) {
      const multitree::Forest forest = multitree::build_structured(n, d);
      const envelope::Lattice lat(n, d);
      for (int k = 0; k < d; ++k) {
        for (NodeKey pos = 1; pos <= forest.n_pad(); ++pos) {
          const NodeKey x = forest.node_at(k, pos);
          ASSERT_EQ(lat.node_at(k, pos), x)
              << "n=" << n << " d=" << d << " k=" << k << " pos=" << pos;
          ASSERT_EQ(lat.position_of(k, x), pos);
        }
      }
    }
  }
}

// --- closed-form replay ----------------------------------------------------

QosReport run_pumped(SessionConfig cfg) {
  cfg.scale.allow_replay = false;
  return run_session(cfg).qos;
}

QosReport run_replayed(SessionConfig cfg) {
  cfg.scale.replay_threshold = 1;  // always replay
  cfg.audit = false;  // the auditor watches slots; a replay has none
  EXPECT_TRUE(replay_eligible(cfg));
  return run_session(cfg).qos;
}

TEST(Replay, ByteIdenticalToPumpAcrossGrid) {
  for (const NodeKey n :
       {1, 2, 3, 4, 7, 9, 13, 24, 40, 63, 100, 121, 365, 1000, 4097}) {
    for (const int d : {1, 2, 3, 4, 5}) {
      for (const auto mode : {multitree::StreamMode::kPreRecorded,
                              multitree::StreamMode::kLivePrebuffered}) {
        SessionConfig cfg{
            .scheme = Scheme::kMultiTreeStructured, .n = n, .d = d,
            .mode = mode};
        const std::string pump = core::serialize(run_pumped(cfg));
        const std::string replay = core::serialize(run_replayed(cfg));
        ASSERT_EQ(pump, replay)
            << "n=" << n << " d=" << d << " mode="
            << (mode == multitree::StreamMode::kPreRecorded ? "pre" : "live");
      }
    }
  }
}

TEST(Replay, HonorsExplicitWindow) {
  SessionConfig cfg{.scheme = Scheme::kMultiTreeStructured, .n = 40, .d = 3};
  cfg.window = 30;
  EXPECT_EQ(core::serialize(run_pumped(cfg)),
            core::serialize(run_replayed(cfg)));
}

TEST(Replay, EligibilityGates) {
  SessionConfig cfg{.scheme = Scheme::kMultiTreeStructured, .n = 100, .d = 3};
  cfg.audit = false;
  EXPECT_TRUE(replay_eligible(cfg));

  SessionConfig greedy = cfg;
  greedy.scheme = Scheme::kMultiTreeGreedy;
  EXPECT_FALSE(replay_eligible(greedy));

  SessionConfig pipelined = cfg;
  pipelined.mode = multitree::StreamMode::kLivePipelined;
  EXPECT_FALSE(replay_eligible(pipelined));

  SessionConfig audited = cfg;
  audited.audit = true;
  EXPECT_FALSE(replay_eligible(audited));

  SessionConfig lossy = cfg;
  lossy.loss.model = loss::ErasureKind::kBernoulli;
  lossy.loss.rate = 0.01;
  EXPECT_FALSE(replay_eligible(lossy));

  SessionConfig narrow = cfg;
  narrow.window = 2;  // < d: not every residue is measured
  EXPECT_FALSE(replay_eligible(narrow));

  SessionConfig disabled = cfg;
  disabled.scale.allow_replay = false;
  EXPECT_FALSE(replay_eligible(disabled));
}

void expect_same_summary(const scale::QuantileSummary& a,
                         const scale::QuantileSummary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.p99, b.p99);
}

/// The pumped and replayed runs of `cfg` agree on the serialized report
/// and on both scale quantile summaries, field by field. Both must carry
/// the scale section (n at or above the replay threshold).
void expect_replay_matches_pump(const SessionConfig& cfg) {
  SessionConfig sim_cfg = cfg;
  sim_cfg.scale.allow_replay = false;
  const core::RunResult simulated = run_session(sim_cfg);
  SessionConfig replay_cfg = cfg;
  replay_cfg.audit = false;
  const core::RunResult replayed = run_session(replay_cfg);

  ASSERT_TRUE(simulated.scale);
  ASSERT_TRUE(replayed.scale);
  EXPECT_FALSE(simulated.scale->replayed);
  EXPECT_TRUE(replayed.scale->replayed);
  EXPECT_EQ(core::serialize(simulated.qos), core::serialize(replayed.qos));
  expect_same_summary(simulated.scale->delay, replayed.scale->delay);
  expect_same_summary(simulated.scale->buffer, replayed.scale->buffer);
}

TEST(Replay, SummaryMatchesSimulatedSummary) {
  // The replay feeds the sketches per receiver 1..n — the same values in
  // the same order as pipeline aggregation — so the summaries agree
  // exactly, not just within epsilon. The larger sizes sit on and around
  // the edges of the chunks the replay walks its receivers in and of the
  // ring it hands them through: past one full ring every slot is reused,
  // and the end marker lands in a fresh slot or after a full turn.
  constexpr NodeKey kChunk = scale::kReplayChunk;
  constexpr NodeKey kRingValues = scale::kReplayRing * kChunk;
  for (const NodeKey n :
       {NodeKey{40}, NodeKey{121}, kChunk - 1, kChunk, kChunk + 1,
        2 * kChunk + 1, kRingValues - 1, kRingValues + 1,
        2 * kRingValues + 1}) {
    for (const auto mode : {multitree::StreamMode::kPreRecorded,
                            multitree::StreamMode::kLivePrebuffered}) {
      SessionConfig cfg{
          .scheme = Scheme::kMultiTreeStructured, .n = n, .d = 3,
          .mode = mode};
      cfg.scale.replay_threshold = 1;  // both runs carry the scale section
      SCOPED_TRACE("n=" + std::to_string(n) + " mode=" +
                   (mode == multitree::StreamMode::kPreRecorded ? "pre"
                                                                : "live"));
      expect_replay_matches_pump(cfg);
    }
  }
}

/// The replay's sketches and ledger peak against a serial reference built
/// from the lattice's closed forms (pre-recorded mode): the offsets table
/// is charged first, then x = 1..n feed two sketches charging one ledger.
void expect_replay_matches_serial_reference(NodeKey n, int d) {
  const envelope::Lattice lat(n, d);
  const envelope::Count window = envelope::multitree_default_window(n, d);
  util::BudgetLedger ledger(util::MemoryBudget{});
  ledger.charge("scale/replay-offsets",
                (static_cast<std::size_t>(lat.n_pad) + 1) * sizeof(sim::Slot));
  scale::DistributionSketch delays(scale::kSketchEpsilon, &ledger);
  scale::DistributionSketch buffers(scale::kSketchEpsilon, &ledger);
  envelope::Count worst_delay = 0;
  envelope::Count max_buffer = 0;
  for (envelope::Count x = 1; x <= n; ++x) {
    const envelope::Count a = envelope::structured_delay(lat, x);
    const envelope::Count occ = envelope::structured_occupancy(lat, x, window);
    delays.add(a);
    buffers.add(occ);
    worst_delay = std::max(worst_delay, a);
    max_buffer = std::max(max_buffer, occ);
  }

  // Summaries flush the sketches' last batches, which charge the ledger.
  const scale::QuantileSummary delay = delays.summarize();
  const scale::QuantileSummary buffer = buffers.summarize();

  SCOPED_TRACE("n=" + std::to_string(n) + " d=" + std::to_string(d));
  const scale::ReplayReport replayed =
      scale::replay_structured({.n = n, .d = d});
  EXPECT_EQ(replayed.worst_delay, worst_delay);
  EXPECT_EQ(static_cast<envelope::Count>(replayed.max_buffer), max_buffer);
  EXPECT_EQ(replayed.summary.bytes_peak, ledger.peak());
  expect_same_summary(replayed.summary.delay, delay);
  expect_same_summary(replayed.summary.buffer, buffer);
}

TEST(Replay, MatchesSerialSketchReference) {
  // On and around the edges of the ring the replay hands its chunks
  // through, and once past two full turns of it.
  constexpr NodeKey kChunk = scale::kReplayChunk;
  constexpr NodeKey kRingValues = scale::kReplayRing * kChunk;
  for (const int d : {2, 3, 4, 5}) {
    for (const NodeKey n : {kRingValues - 1, kRingValues, kRingValues + 1,
                            2 * kRingValues + 1}) {
      expect_replay_matches_serial_reference(n, d);
    }
  }
  expect_replay_matches_serial_reference(100'003, 3);
  // At d = 1 arrival_offset recurses as deep as the position.
  for (const NodeKey n : {NodeKey{1}, NodeKey{2}, kChunk, kChunk + 1}) {
    expect_replay_matches_serial_reference(n, 1);
  }
}

TEST(Replay, SketchBudgetOverrunThrowsAndJoins) {
  // Budgets that hold the offsets table but not both sketches: a sketch's
  // charge throws inside its drain, and the replay rethrows it once both
  // drains have joined. Which sketch overruns first varies with n and the
  // budget; no call may hang or terminate.
  for (int i = 0; i < 200; ++i) {
    const NodeKey n = 20'000 + 37 * i;
    const envelope::Lattice lat(n, 3);
    scale::ScaleOptions options;
    options.budget_bytes =
        (static_cast<std::size_t>(lat.n_pad) + 1) * sizeof(sim::Slot) +
        1'000 + 27 * static_cast<std::size_t>(i);
    try {
      (void)scale::replay_structured({.n = n, .d = 3}, options);
      ADD_FAILURE() << "no BudgetExceeded at n=" << n;
    } catch (const util::BudgetExceeded& e) {
      EXPECT_EQ(e.component(), "scale/quantile-sketch") << "n=" << n;
    }
  }
}

TEST(Replay, MatchesPumpAtOneHundredThousandReceivers) {
  // The largest size the per-slot pump checks: structured, d = 3,
  // pre-recorded, above the default replay threshold. The pump runs
  // unaudited like the replay; audited, it would take about 26x as long.
  SessionConfig cfg{.scheme = Scheme::kMultiTreeStructured, .n = 100'000,
                    .d = 3};
  cfg.audit = false;
  expect_replay_matches_pump(cfg);
}

TEST(Replay, ThresholdRoutesAutomatically) {
  // Below the replay threshold run_session() pumps and carries no scale
  // section; at/above it, it replays. Both must agree bytewise, so the
  // routing is observable only through the scale section.
  SessionConfig cfg{.scheme = Scheme::kMultiTreeStructured, .n = 200, .d = 2};
  cfg.scale.replay_threshold = 100;
  cfg.audit = false;
  const core::RunResult routed = run_session(cfg);
  ASSERT_TRUE(routed.scale);
  EXPECT_TRUE(routed.scale->replayed);

  cfg.audit = core::kAuditDefault;
  cfg.scale.replay_threshold = 1'000;
  const core::RunResult pumped = run_session(cfg);
  EXPECT_FALSE(pumped.scale);
  EXPECT_EQ(core::serialize(routed.qos), core::serialize(pumped.qos));
}

}  // namespace
}  // namespace streamcast
