#include "perfbench/mix.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "src/core/session.hpp"
#include "src/scheme/registry.hpp"
#include "src/util/prng.hpp"

namespace perfbench {

namespace core = streamcast::core;
namespace loss = streamcast::loss;
namespace multitree = streamcast::multitree;
namespace scheme = streamcast::scheme;
using streamcast::util::Prng;

namespace {

constexpr multitree::StreamMode kModes[] = {
    multitree::StreamMode::kPreRecorded,
    multitree::StreamMode::kLivePrebuffered,
    multitree::StreamMode::kLivePipelined};
constexpr const char* kStartups[] = {"fixed", "progressive-ramp",
                                     "loss-adaptive"};

/// Streaming-code parameters of every streaming-code session: decode delay
/// T = 12 channel uses, correctable burst B = 4 (as in the E36 frontier).
constexpr streamcast::policy::StreamingCodeOptions kCode{.decode_delay = 12,
                                                         .burst = 4};

/// The logarithm of a log-uniform draw from stratum `i` of `count` equal
/// log-width strata of [lo, hi].
double stratum_log(Prng& prng, int i, int count, double lo, double hi) {
  const double a = std::log(lo);
  return a + (std::log(hi) - a) / count * (i + prng.uniform());
}

/// The draw itself, rounded to a size. Drawing stratum i for the i-th
/// session of a class spreads the class over its whole range on every seed,
/// so a pass's total cost barely moves between seeds while no two seeds
/// share a size.
int stratum(Prng& prng, int i, int count, double lo, double hi) {
  return static_cast<int>(
      std::lround(std::exp(stratum_log(prng, i, count, lo, hi))));
}

/// Seeded Fisher–Yates shuffle.
template <typename T>
void permute(Prng& prng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[prng.below(i)]);
  }
}

/// `count` draws from `options` in consecutive blocks, each block a seeded
/// permutation of all options: every option appears equally often, in
/// neighbouring size strata, and which stratum gets which option is drawn
/// from the seed.
template <typename T>
std::vector<T> balanced(Prng& prng, int count, std::initializer_list<T> options) {
  std::vector<T> out;
  while (static_cast<int>(out.size()) < count) {
    std::vector<T> block(options);
    permute(prng, block);
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(static_cast<std::size_t>(count));
  return out;
}

/// The integers lo..hi spread evenly over `count` draws, in seeded order.
std::vector<int> spread(Prng& prng, int count, int lo, int hi) {
  std::vector<int> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(lo + (hi - lo) * i / (count - 1));
  }
  permute(prng, out);
  return out;
}

/// Rejects a second session with the same overlay (scheme, size, degree,
/// mode, overlay seed, cluster layout) inside a workload that promises no
/// repeats.
class Distinct {
 public:
  bool insert(const SessionConfig& c) {
    return seen_
        .insert({static_cast<int>(c.scheme), c.n, c.d, static_cast<int>(c.mode),
                 c.seed, c.clusters, c.big_d, c.t_c})
        .second;
  }

 private:
  std::set<std::tuple<int, int, int, int, std::uint64_t, int, int, long>>
      seen_;
};

SessionConfig base(const char* name, int n, int d) {
  SessionConfig c;
  c.scheme = core::parse_scheme(name);
  c.n = n;
  c.d = d;
  // Explicit: the audit preset flips kAuditDefault, which would attach the
  // auditor to every session and disable the closed-form replay.
  c.audit = false;
  return c;
}

/// Interleaves the classes so no family runs as one block of the pass.
void shuffle(std::vector<Session>& sessions, std::uint64_t seed) {
  Prng order(seed ^ 0x5e55'10f5'ca11'0000ULL);
  permute(order, sessions);
}

/// Degree and stream mode of a class's sessions: all of {2, 3, 4} for
/// degree-sweep schemes (d = 1 otherwise), all three modes for schemes with
/// live modes.
struct Shape {
  std::vector<int> d;
  std::vector<multitree::StreamMode> mode;
};

Shape shape(Prng& prng, const char* name, int count) {
  const scheme::Capabilities& caps =
      scheme::descriptor(core::parse_scheme(name)).caps;
  Shape sh;
  sh.d = caps.degree_sweep
             ? balanced(prng, count, {2, 3, 4})
             : std::vector<int>(static_cast<std::size_t>(count), 1);
  sh.mode = caps.live_modes
                ? balanced(prng, count,
                           {kModes[0], kModes[1], kModes[2]})
                : std::vector<multitree::StreamMode>(
                      static_cast<std::size_t>(count), kModes[0]);
  return sh;
}

/// The cluster count and cluster size of a super-tree session. Its cost
/// follows the total receiver count, so the total (not n and the cluster
/// count apart) is drawn from stratum `i` of `count` strata spanning
/// [c_lo·n_lo, c_hi·n_hi]; the cluster count is then drawn among those
/// that keep n within [n_lo, n_hi].
std::pair<int, int> super_tree_size(Prng& prng, int i, int count, int c_lo,
                                    int c_hi, int n_lo, int n_hi) {
  const double total = std::exp(stratum_log(prng, i, count, c_lo * n_lo,
                                            c_hi * n_hi));
  const int lo = std::max(c_lo, static_cast<int>(std::ceil(total / n_hi)));
  const int hi = std::min(c_hi, static_cast<int>(std::floor(total / n_lo)));
  const auto clusters = static_cast<int>(prng.range(lo, std::max(lo, hi)));
  return {clusters,
          std::clamp(static_cast<int>(std::lround(total / clusters)), n_lo,
                     n_hi)};
}

/// A super-tree session: `clusters` clusters of n receivers each, with the
/// given intra-cluster scheme.
SessionConfig super_tree(const char* intra, int n, int d, int clusters,
                         streamcast::sim::Slot t_c, int big_d, int shards) {
  SessionConfig c = base(intra, n, d);
  c.clusters = clusters;
  c.t_c = t_c;
  c.big_d = big_d;
  c.shards = shards;
  return c;
}

// --- reliable-mix -----------------------------------------------------------

struct ReliableClass {
  const char* scheme;
  double lo, hi;
};

/// Sessions per class and pass: six blocks of three size strata.
constexpr int kPerClass = 18;

/// Sized so that no family dominates a pass: the O(n^2) chain and the
/// per-transmission-expensive random-regular and dynamic-trees protocols
/// stop at smaller n than the multi-trees.
constexpr ReliableClass kReliable[] = {
    {"multi-tree/structured", 100, 4000}, {"multi-tree/greedy", 100, 4000},
    {"hypercube", 100, 2500},             {"hypercube/grouped", 100, 2500},
    {"chain", 100, 800},                  {"single-tree", 200, 4000},
    {"random-regular", 100, 800},         {"dynamic-trees", 100, 800},
};

Workload reliable_mix(std::uint64_t seed) {
  Workload w;
  w.name = "reliable-mix";
  Prng prng(seed);
  Distinct distinct;
  for (const ReliableClass& rc : kReliable) {
    const int cls = static_cast<int>(w.classes.size());
    w.classes.push_back(rc.scheme);
    const Shape sh = shape(prng, rc.scheme, kPerClass);
    for (int i = 0; i < kPerClass; ++i) {
      Session s{.cls = cls, .path = Path::kReliable, .config = {}};
      do {
        s.config = base(rc.scheme, stratum(prng, i, kPerClass, rc.lo, rc.hi),
                        sh.d[static_cast<std::size_t>(i)]);
        s.config.mode = sh.mode[static_cast<std::size_t>(i)];
        s.config.seed = prng.next();
      } while (!distinct.insert(s.config));
      w.sessions.push_back(s);
    }
    const int top_d = sh.d.front() == 1 ? 1 : 4;
    w.warmups.push_back({.cls = cls,
                         .path = Path::kReliable,
                         .config = base(rc.scheme, static_cast<int>(rc.hi),
                                        top_d)});
  }

  // Serial (shards = 1) super-tree sessions: the §2.1 composition through
  // the same sharded runner large-world drives with two shards.
  const int cls = static_cast<int>(w.classes.size());
  w.classes.push_back("super-tree/serial");
  const std::vector<const char*> intra =
      balanced(prng, kPerClass, {"multi-tree/greedy", "hypercube"});
  const std::vector<int> t_c = spread(prng, kPerClass, 2, 12);
  for (int i = 0; i < kPerClass; ++i) {
    const auto k = static_cast<std::size_t>(i);
    Session s{.cls = cls, .path = Path::kMulticluster, .config = {}};
    do {
      const bool cube = std::string_view(intra[k]) == "hypercube";
      const auto [clusters, n] =
          super_tree_size(prng, i, kPerClass, 2, 6, 50, 250);
      s.config = super_tree(intra[k], n, cube ? 1 : 3, clusters, t_c[k],
                            3 + static_cast<int>(prng.below(2)), 1);
    } while (!distinct.insert(s.config));
    w.sessions.push_back(s);
  }
  w.warmups.push_back(
      {.cls = cls,
       .path = Path::kMulticluster,
       .config = super_tree("multi-tree/greedy", 250, 3, 6, 12, 3, 1)});
  shuffle(w.sessions, seed);
  return w;
}

// --- lossy-mix --------------------------------------------------------------

struct LossyClass {
  const char* scheme;
  const char* policy;
  double lo, hi;
};

/// Overlays per class and pass; each is shared by kGroup loss settings.
constexpr int kGroups = 24;
constexpr int kGroup = 3;

/// NACK on every scheme but hypercube/grouped (its NACK drain can fail to
/// converge; see perfbench/README.md), the two FEC policies on the
/// dense-link overlays.
constexpr LossyClass kLossy[] = {
    {"multi-tree/structured", "nack", 40, 500},
    {"multi-tree/greedy", "nack", 40, 500},
    {"hypercube", "nack", 40, 250},
    {"chain", "nack", 30, 120},
    {"single-tree", "nack", 40, 300},
    {"random-regular", "nack", 40, 200},
    {"dynamic-trees", "nack", 40, 200},
    {"chain", "xor-parity", 12, 36},
    {"single-tree", "xor-parity", 8, 24},
    {"chain", "streaming-code", 30, 120},
    {"single-tree", "streaming-code", 30, 150},
};

/// Stationary loss rates span 0.3-5%, log-uniform, in kGroup strata.
constexpr double kRateLo = 0.003;
constexpr double kRateHi = 0.05;

/// One loss setting: Bernoulli at `rate`, or a Gilbert–Elliott burst
/// channel with that stationary rate and a mean burst of 1-4 transmissions.
void set_loss(Prng& prng, bool bursty, double rate, core::LossConfig& lc) {
  if (bursty) {
    const double burst = 1.0 + 3.0 * prng.uniform();
    lc.model = loss::ErasureKind::kGilbertElliott;
    lc.ge.p_recover = 1.0 / burst;
    lc.ge.p_enter = rate * lc.ge.p_recover / (1.0 - rate);
    lc.ge.loss_good = 0.0;
    lc.ge.loss_bad = 1.0;
  } else {
    lc.model = loss::ErasureKind::kBernoulli;
    lc.rate = rate;
  }
  lc.seed = prng.next();
}

Workload lossy_mix(std::uint64_t seed) {
  Workload w;
  w.name = "lossy-mix";
  Prng prng(seed);
  Distinct distinct;
  for (const LossyClass& lc : kLossy) {
    const int cls = static_cast<int>(w.classes.size());
    w.classes.push_back(std::string(lc.policy) + "/" + lc.scheme);
    const Shape sh = shape(prng, lc.scheme, kGroups);
    const bool fec = std::string_view(lc.policy) != "nack";
    for (int g = 0; g < kGroups; ++g) {
      const auto k = static_cast<std::size_t>(g);
      // One overlay, shared by the group's loss settings (as loss_sweep and
      // throughput_smoothness sweep one overlay across channels).
      SessionConfig overlay;
      do {
        overlay = base(lc.scheme, stratum(prng, g, kGroups, lc.lo, lc.hi),
                       sh.d[k]);
        overlay.mode = sh.mode[k];
        overlay.seed = prng.next();
      } while (!distinct.insert(overlay));
      overlay.loss.recovery_policy = lc.policy;
      overlay.loss.code = kCode;
      const std::vector<int> rate_stratum = balanced(prng, kGroup, {0, 1, 2});
      const std::vector<const char*> startup =
          balanced(prng, kGroup, {kStartups[0], kStartups[1], kStartups[2]});
      for (int j = 0; j < kGroup; ++j) {
        const auto m = static_cast<std::size_t>(j);
        Session s{.cls = cls, .path = Path::kLossy, .config = overlay};
        const double rate = std::exp(
            stratum_log(prng, rate_stratum[m], kGroup, kRateLo, kRateHi));
        // The FEC policies face burst channels only, the erasures they are
        // built for: streaming-code sessions then land inside and outside
        // the code's guaranteed region, and an xor-parity session that loses
        // anything is left with residual gaps and spends all of max_drain.
        set_loss(prng, fec || (g + j) % 2 == 1, rate, s.config.loss);
        s.config.startup.policy = startup[m];
        w.sessions.push_back(s);
      }
    }
    Session warm{.cls = cls,
                 .path = Path::kLossy,
                 .config = base(lc.scheme, static_cast<int>(lc.hi),
                                sh.d.front() == 1 ? 1 : 3)};
    warm.config.loss.recovery_policy = lc.policy;
    warm.config.loss.code = kCode;
    warm.config.loss.model = loss::ErasureKind::kBernoulli;
    warm.config.loss.rate = 0.02;
    w.warmups.push_back(warm);
  }
  shuffle(w.sessions, seed);
  return w;
}

// --- large-world ------------------------------------------------------------

/// The counts and ranges put the workload's median session well inside the
/// replays: every super-tree (2-6k receivers, about 10-50 ms) runs faster
/// than the cheapest replay (about 70 ms), and the median falls about 40% of
/// the way up the 36 replays. So session_ms.p50 is a single-threaded replay
/// time, not a point where replays and two-thread super-trees overlap (the
/// latter slow more than the rest when the host is busy). 51 sessions per
/// pass: two passes time the 100 sessions p90 needs.
constexpr int kReplays = 36;
/// Host time per replayed node relative to d = 2 (measured: 0.53, 0.61 and
/// 0.69 us per node at d = 2, 3, 4). A replay's size is its cost stratum
/// divided by this, so replays of every degree spread evenly over one cost
/// range, neighbouring strata about 6% apart; otherwise a d = 2 replay can
/// cost 20% less than the d = 4 one a stratum below it, and the median
/// jumps across such gaps.
constexpr double kReplayNodeCost[] = {0, 0, 1.0, 1.15, 1.3};
constexpr int kPumps = 3;
/// Fixed sizes, one per stream mode: a pump's memory is a jagged function
/// of N (d = 3 trees grow a level near N = 66k), so seed-drawn pumps moved
/// peak RSS by 20% between seeds. The timed pumps stay below the level
/// step; the warm-up pump, above it, is the workload's largest session.
constexpr int kPumpSizes[kPumps] = {52'000, 58'000, 64'000};
constexpr int kWarmupPump = 69'000;
constexpr int kSharded = 12;

Workload large_world(std::uint64_t seed) {
  Workload w;
  w.name = "large-world";
  w.classes = {"replay/structured", "scale-pump", "super-tree/2-shard"};
  Prng prng(seed);
  Distinct distinct;

  // Replay covers the replayable modes only (kLivePipelined is not). The
  // degree and mode cycle over the cost strata in a fixed order, so every
  // seed has the same cost profile; the seed draws each replay's cost
  // within its stratum. N stays within [1e5, 1e6] at every degree.
  for (int i = 0; i < kReplays; ++i) {
    const int d = 2 + i % 3;
    Session s{.cls = 0, .path = Path::kScale, .config = {}};
    do {
      const double cost =
          std::exp(stratum_log(prng, i, kReplays, 1e5 * kReplayNodeCost[4],
                               1e6 * kReplayNodeCost[2]));
      const auto n = static_cast<int>(std::lround(cost / kReplayNodeCost[d]));
      s.config = base("multi-tree/structured", n, d);
      s.config.mode = kModes[i / 3 % 2];
    } while (!distinct.insert(s.config));
    w.sessions.push_back(s);
  }
  // Replay off: the scale recorders (above the 50k sketch threshold)
  // observe a real pump.
  for (int i = 0; i < kPumps; ++i) {
    Session s{.cls = 1,
              .path = Path::kScale,
              .config = base("multi-tree/structured", kPumpSizes[i], 3)};
    s.config.mode = kModes[i];
    s.config.scale.allow_replay = false;
    distinct.insert(s.config);
    w.sessions.push_back(s);
  }
  const std::vector<int> shard_d = balanced(prng, kSharded, {2, 3});
  const std::vector<int> t_c = spread(prng, kSharded, 2, 12);
  for (int i = 0; i < kSharded; ++i) {
    const auto k = static_cast<std::size_t>(i);
    Session s{.cls = 2, .path = Path::kMulticluster, .config = {}};
    do {
      const auto [clusters, n] =
          super_tree_size(prng, i, kSharded, 8, 12, 256, 512);
      s.config = super_tree("multi-tree/greedy", n, shard_d[k], clusters,
                            t_c[k], 3 + static_cast<int>(prng.below(2)), 2);
    } while (!distinct.insert(s.config));
    w.sessions.push_back(s);
  }

  SessionConfig replay = base("multi-tree/structured", 1'000'000, 3);
  SessionConfig pump = base("multi-tree/structured", kWarmupPump, 3);
  pump.scale.allow_replay = false;
  w.warmups = {
      {.cls = 0, .path = Path::kScale, .config = replay},
      {.cls = 1, .path = Path::kScale, .config = pump},
      {.cls = 2,
       .path = Path::kMulticluster,
       .config = super_tree("multi-tree/greedy", 512, 3, 12, 12, 3, 2)}};
  // No shuffle: the classes run in one fixed order, so the pumps reuse the
  // heap the same way on every seed and the peak RSS printed stays put.
  return w;
}

void append(std::string& out, const char* fmt, auto... args) {
  char buf[256];
  const int len = std::snprintf(buf, sizeof buf, fmt, args...);
  out.append(buf, static_cast<std::size_t>(std::min<int>(len, sizeof buf - 1)));
}

void render_quantiles(std::string& out, const char* name,
                      const streamcast::scale::QuantileSummary& q) {
  append(out, " %s=%lld/%lld/%lld/%.17g/%lld/%lld/%lld", name,
         static_cast<long long>(q.count), static_cast<long long>(q.min),
         static_cast<long long>(q.max), q.mean, static_cast<long long>(q.p50),
         static_cast<long long>(q.p95), static_cast<long long>(q.p99));
}

}  // namespace

Workload make_workload(std::string_view name, std::uint64_t seed) {
  Workload w;
  if (name == "reliable-mix") {
    w = reliable_mix(seed);
  } else if (name == "lossy-mix") {
    w = lossy_mix(seed);
  } else if (name == "large-world") {
    w = large_world(seed);
  } else {
    throw std::invalid_argument("unknown workload: " + std::string(name));
  }
  return w;
}

std::string render(const Session& s, const Outcome& o) {
  const core::QosReport& q = o.result.qos;
  std::string out;
  append(out, "qos %s n=%d d=%d worst=%lld avg=%.17g maxbuf=%zu avgbuf=%.17g",
         q.scheme.c_str(), q.n, q.d, static_cast<long long>(q.worst_delay),
         q.average_delay, q.max_buffer, q.average_buffer);
  append(out, " maxnb=%zu avgnb=%.17g tx=%lld slots=%lld drops=%lld rtx=%lld",
         q.max_neighbors, q.average_neighbors,
         static_cast<long long>(q.transmissions),
         static_cast<long long>(q.slots_simulated),
         static_cast<long long>(q.drops),
         static_cast<long long>(q.retransmissions));
  if (s.path == Path::kLossy) {
    const core::LossSummary& l = o.result.loss;
    append(out, "\nloss drops=%lld rtx=%lld parity=%lld fec=%lld supp=%lld",
           static_cast<long long>(l.drops),
           static_cast<long long>(l.retransmissions),
           static_cast<long long>(l.parity_transmissions),
           static_cast<long long>(l.fec_decodes),
           static_cast<long long>(l.suppressed));
    append(out, " nacks=%lld overhead=%.17g gapfree=%d stalls=%d stallslots=%lld",
           static_cast<long long>(l.nacks), l.redundancy_overhead,
           l.all_gap_free ? 1 : 0, l.stalls,
           static_cast<long long>(l.stall_slots));
    append(out, " undec=%lld drain=%lld incomplete=%d run=%lld guard=%lld unrec=%lld",
           static_cast<long long>(l.undecodable),
           static_cast<long long>(l.drain_slots), l.incomplete_nodes,
           static_cast<long long>(l.max_erasure_run),
           static_cast<long long>(l.guard_collisions),
           static_cast<long long>(l.unrecoverable));
    const core::StartupSummary& st = o.result.startup;
    append(out, "\nstartup %s max=%lld avg=%.17g earliest=%lld stalls=%d",
           st.policy.c_str(), static_cast<long long>(st.max_start),
           st.average_start, static_cast<long long>(st.earliest_start),
           st.stalls);
    append(out, " stallslots=%lld undec=%lld finish=%lld",
           static_cast<long long>(st.stall_slots),
           static_cast<long long>(st.undecodable),
           static_cast<long long>(st.max_finish));
  }
  if (s.path == Path::kScale) {
    const streamcast::scale::ScaleSummary& sm = o.summary;
    append(out, "\nscale nodes=%d eps=%.17g replayed=%d budget=%zu peak=%zu",
           sm.nodes, sm.epsilon, sm.replayed ? 1 : 0, sm.budget_bytes,
           sm.bytes_peak);
    render_quantiles(out, "delay", sm.delay);
    render_quantiles(out, "buffer", sm.buffer);
  }
  return out;
}

Outcome run_session(const Session& s) {
  const core::StreamingSession session(s.config);
  Outcome o;
  switch (s.path) {
    case Path::kReliable:
    case Path::kMulticluster:
      o.result.qos = session.run();
      break;
    case Path::kLossy:
      o.result = session.run_lossy();
      break;
    case Path::kScale: {
      core::ScaleRunResult r = session.run_scale();
      o.result.qos = std::move(r.qos);
      o.summary = r.summary;
      break;
    }
  }
  o.rendered = render(s, o);
  return o;
}

std::string check(const Session& s, const Outcome& o) {
  const SessionConfig& c = s.config;
  const core::QosReport& q = o.result.qos;
  const scheme::Descriptor& desc = scheme::descriptor(c.scheme);
  if (q.transmissions <= 0 || q.slots_simulated <= 0) return "empty report";
  if (s.path == Path::kMulticluster) {
    const streamcast::sim::Slot bound = desc.multicluster_bound(c);
    if (q.worst_delay > bound) {
      return "worst delay " + std::to_string(q.worst_delay) +
             " exceeds the super-tree bound " + std::to_string(bound);
    }
    return {};
  }
  if (s.path == Path::kReliable || s.path == Path::kScale) {
    const scheme::Envelope e = desc.envelope(c);
    if (e.delay >= 0 && q.worst_delay > e.delay) {
      return "worst delay " + std::to_string(q.worst_delay) +
             " exceeds the registry envelope " + std::to_string(e.delay);
    }
    if (e.buffer >= 0 && static_cast<std::int64_t>(q.max_buffer) > e.buffer) {
      return "max buffer " + std::to_string(q.max_buffer) +
             " exceeds the registry envelope " + std::to_string(e.buffer);
    }
    if (s.path == Path::kScale) {
      const bool replay = c.scale.replay_threshold > 0 &&
                          c.n >= c.scale.replay_threshold &&
                          core::StreamingSession::replay_eligible(c);
      if (o.summary.replayed != replay) return "unexpected scale path";
      if (o.summary.bytes_peak > o.summary.budget_bytes) {
        return "memory budget exceeded";
      }
    }
    return {};
  }
  const core::LossSummary& l = o.result.loss;
  const std::string_view policy = c.loss.recovery_policy;
  if (policy == "nack" && !l.all_gap_free) {
    return "NACK session did not end gap-free";
  }
  if (policy == "streaming-code" && l.max_erasure_run <= c.loss.code.burst &&
      l.guard_collisions == 0 &&
      (l.undecodable != 0 || o.result.startup.undecodable != 0)) {
    return "streaming-code session inside its guaranteed region reported " +
           std::to_string(l.undecodable) + " undecodable packets";
  }
  return {};
}

std::uint64_t digest(std::string_view rendered) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : rendered) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string describe(const Session& s) {
  const SessionConfig& c = s.config;
  std::string out;
  append(out, "%s n=%d d=%d mode=%d seed=%llu", core::scheme_name(c.scheme),
         c.n, c.d, static_cast<int>(c.mode),
         static_cast<unsigned long long>(c.seed));
  if (c.clusters > 1) {
    append(out, " clusters=%d D=%d tc=%lld shards=%d", c.clusters, c.big_d,
           static_cast<long long>(c.t_c), c.shards);
  }
  if (s.path == Path::kLossy) {
    append(out, " loss=%s rate=%.4g ge=%.4g/%.4g policy=%s startup=%s",
           c.loss.model == loss::ErasureKind::kBernoulli ? "bernoulli" : "ge",
           c.loss.rate, c.loss.ge.p_enter, c.loss.ge.p_recover,
           c.loss.recovery_policy.c_str(), c.startup.policy.c_str());
  }
  if (s.path == Path::kScale && !c.scale.allow_replay) append(out, " replay=off");
  return out;
}

}  // namespace perfbench
