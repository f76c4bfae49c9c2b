// Registry-wide differential harness (ISSUE 7 tentpole).
//
// The golden parity grid (scheme_registry_test.cpp) locks the six
// deterministic schemes to captured bytes; the seeded randomized/dynamic
// schemes (random-regular, dynamic-trees) cannot be locked that way without
// freezing their PRNG draw sequences (see tests/scheme_parity_cells.hpp).
// This suite holds EVERY scheme — present and future, enumerated via
// scheme::all() — to the properties a byte-golden would imply but that
// survive behavior-preserving refactors:
//
//   1. Seed determinism: the same SessionConfig yields a byte-identical
//      serialized report on the serial path, on run_sweep at one thread,
//      and on run_sweep at many threads; distinct seeds actually change the
//      randomized schemes' overlays.
//   2. Audit-envelope satisfaction over an (N, d, T_c, seed) grid: every
//      scheme's registered delay/buffer envelope holds under the
//      InvariantAuditor at 3+ seeds.
//   3. Cross-scheme sanity: random-regular stays within its O(log N)
//      envelope as N doubles, and the dynamic forest is never worse than
//      the paper's static multi-tree bound once churn settles.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/session.hpp"
#include "src/dyntree/forest.hpp"
#include "src/multitree/analysis.hpp"
#include "src/rrd/digraph.hpp"
#include "src/run/sweep.hpp"
#include "src/scheme/registry.hpp"
#include "src/util/prng.hpp"
#include "tests/scheme_parity_cells.hpp"

namespace streamcast::core {
namespace {

std::string describe(const SessionConfig& cfg) {
  std::string s = std::string(scheme_name(cfg.scheme)) +
                  " N=" + std::to_string(cfg.n) +
                  " d=" + std::to_string(cfg.d) +
                  " seed=" + std::to_string(cfg.seed);
  if (cfg.clusters > 1) {
    s += " clusters=" + std::to_string(cfg.clusters) +
         " T_c=" + std::to_string(cfg.t_c);
  }
  return s;
}

/// One representative config per scheme, shaped by its capabilities.
std::vector<SessionConfig> representative_configs(std::uint64_t seed) {
  std::vector<SessionConfig> cfgs;
  for (const scheme::Descriptor& desc : scheme::all()) {
    SessionConfig cfg{.scheme = desc.id,
                      .n = 21,
                      .d = desc.caps.degree_sweep ? 2 : 1};
    cfg.seed = seed;
    cfgs.push_back(cfg);
  }
  return cfgs;
}

std::string serialize_result(const run::TaskResult& r) {
  if (r.error) std::rethrow_exception(r.error);
  return serialize(r);
}

TEST(SchemeDifferential, ReportsAreByteIdenticalAcrossRunnersAndThreads) {
  // Serial session == 1-thread sweep == 8-thread sweep, and a repeat of the
  // same task inside one sweep matches itself, for every scheme.
  auto tasks = representative_configs(0x5eed);
  const auto repeats = tasks.size();
  for (std::size_t i = 0; i < repeats; ++i) tasks.push_back(tasks[i]);

  const auto serial = run::run_sweep(tasks, {.threads = 1});
  const auto parallel = run::run_sweep(tasks, {.threads = 8});
  ASSERT_EQ(serial.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const std::string a = serialize_result(serial[i]);
    const std::string b = serialize_result(parallel[i]);
    EXPECT_EQ(a, b) << "thread-count divergence: " << describe(tasks[i]);
    if (i >= repeats) {
      EXPECT_EQ(a, serialize_result(serial[i - repeats]))
          << "repeat divergence: " << describe(tasks[i]);
    }
  }
  for (std::size_t i = 0; i < repeats; ++i) {
    SessionConfig plain = tasks[i];
    plain.audit = false;
    EXPECT_EQ(serialize(run_session(plain)), serialize_result(serial[i]))
        << "session/sweep divergence: " << describe(tasks[i]);
  }
}

TEST(SchemeDifferential, DistinctSeedsChangeRandomizedOverlaysOnly) {
  for (const scheme::Descriptor& desc : scheme::all()) {
    const bool randomized = desc.id == Scheme::kRandomRegular ||
                            desc.id == Scheme::kDynamicTrees;
    std::vector<std::string> reports;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SessionConfig cfg{.scheme = desc.id,
                        .n = desc.caps.degree_sweep ? NodeKey{30} : NodeKey{25},
                        .d = desc.caps.degree_sweep ? 2 : 1};
      cfg.seed = seed;
      reports.push_back(serialize(run_session(cfg)));
    }
    if (randomized) {
      // Different seeds must draw different overlays; demanding that at
      // least one of three reports differs keeps the assertion robust to a
      // coincidental delay tie between two draws.
      EXPECT_FALSE(reports[0] == reports[1] && reports[1] == reports[2])
          << desc.name << ": seed is dead";
    } else {
      EXPECT_EQ(reports[0], reports[1]) << desc.name;
      EXPECT_EQ(reports[1], reports[2]) << desc.name;
    }
  }
}

TEST(SchemeDifferential, InvariantCellsAreAuditCleanAndAuditInvisible) {
  // The randomized schemes' stand-in for the golden grid: every invariant
  // cell runs clean under the auditor and the audited report is
  // byte-identical to the unaudited one.
  for (const ParityCell& cell : randomized_invariant_cells()) {
    SessionConfig plain = cell.cfg;
    plain.audit = false;
    SessionConfig audited = cell.cfg;
    audited.audit = true;
    const std::string a = serialize(run_session(plain));
    std::string b;
    ASSERT_NO_THROW(b = serialize(run_session(audited))) << cell.id;
    EXPECT_EQ(a, b) << "auditor perturbed the run: " << cell.id;
  }
}

TEST(SchemeDifferential, EverySchemeHoldsItsEnvelopeOverTheSeedGrid) {
  // (N, d, seed) for every scheme; (clusters, T_c, seed) on top for the
  // multicluster-capable ones. All audited: the InvariantAuditor rethrows
  // any capacity/pacing/envelope violation through run_sweep.
  std::vector<SessionConfig> tasks;
  for (const scheme::Descriptor& desc : scheme::all()) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      for (const NodeKey n : desc.caps.degree_sweep
                                 ? std::vector<NodeKey>{14, 30, 64}
                                 : std::vector<NodeKey>{7, 25, 63}) {
        for (const int d : desc.caps.degree_sweep ? std::vector<int>{2, 3}
                                                  : std::vector<int>{1}) {
          SessionConfig cfg{.scheme = desc.id, .n = n, .d = d, .audit = true};
          cfg.seed = seed;
          tasks.push_back(cfg);
        }
      }
      if (desc.caps.multicluster) {
        for (const sim::Slot t_c : {2, 8}) {
          SessionConfig cfg{.scheme = desc.id,
                            .n = desc.caps.degree_sweep ? NodeKey{10}
                                                        : NodeKey{7},
                            .d = desc.caps.degree_sweep ? 2 : 1,
                            .clusters = 3,
                            .big_d = 3,
                            .t_c = t_c,
                            .audit = true};
          cfg.seed = seed;
          tasks.push_back(cfg);
        }
      }
    }
  }
  const auto results = run::run_sweep(tasks);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].error) << describe(tasks[i]);
  }
}

TEST(SchemeDifferential, RandomRegularDelayTracksTheLogEnvelope) {
  // The Kim-Srikant claim, checked as N doubles: measured worst delay stays
  // within rrd::delay_bound — O(log N) — at every seed, so delay growth per
  // doubling is bounded by a constant while N grows 16x.
  for (const NodeKey n : {8, 16, 32, 64, 128}) {
    for (const int d : {2, 3}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SessionConfig cfg{.scheme = Scheme::kRandomRegular, .n = n, .d = d};
        cfg.seed = seed;
        const QosReport r = run_session(cfg).qos;
        const sim::Slot bound = rrd::delay_bound(n, d);
        EXPECT_LE(r.worst_delay, bound) << describe(cfg);
        EXPECT_LE(r.max_buffer, bound + 1) << describe(cfg);
        EXPECT_GE(r.worst_delay, 1) << describe(cfg);
      }
    }
  }
}

TEST(SchemeDifferential, DynamicForestNeverWorseThanStaticTreesAfterChurn) {
  // Zhu-Hajek vs the paper's static forest: drive a random join/leave mix,
  // rebalance to a fixed point, and compare the structure-derived schedule
  // bound against multitree::worst_delay_bound for the same live population.
  // Emergency source children can legitimately persist when the live count
  // sits at the seat-feasibility boundary (live ~ d * (internals + 1)); each
  // one adds at most one serve rank, hence the additive term.
  for (const int d : {2, 3}) {
    for (const NodeKey n : {14, 30, 64}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        dyntree::DynamicForest forest(d, seed);
        std::vector<NodeKey> live;
        for (NodeKey i = 0; i < n; ++i) live.push_back(forest.join());
        forest.rebalance();

        util::Prng churn(seed * 99 + 1);
        for (int e = 0; e < 2 * n; ++e) {
          if (live.size() > 2 && churn.chance(0.5)) {
            const auto i = static_cast<std::size_t>(churn.below(live.size()));
            forest.leave(live[i]);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          } else {
            live.push_back(forest.join());
          }
        }
        int rounds = 0;
        while (forest.rebalance() > 0 && ++rounds < 64) {
        }
        ASSERT_LT(rounds, 64) << "rebalance did not settle";

        const sim::Slot churned = dyntree::schedule_bound(forest);
        const sim::Slot fixed =
            multitree::worst_delay_bound(forest.peers(), d);
        EXPECT_LE(churned,
                  fixed + 2 * d + forest.emergency_children())
            << "d=" << d << " n=" << n << " seed=" << seed
            << " live=" << forest.peers();
        // The churn machinery actually engaged.
        EXPECT_GT(forest.stats().leaves, 0);
        EXPECT_GT(forest.stats().reattach_moves, 0);
      }
    }
  }
}

}  // namespace
}  // namespace streamcast::core
