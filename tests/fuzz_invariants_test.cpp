// Fuzz suite: seeded random configurations driven through every protocol,
// asserting the global invariants that hold regardless of parameters —
// engine capacity checks (implicit: violations throw), window completeness,
// theorem bounds, and cross-implementation agreement.
#include <gtest/gtest.h>

#include "src/core/session.hpp"
#include "src/fluid/bounds.hpp"
#include "src/hypercube/analysis.hpp"
#include "src/multitree/analysis.hpp"
#include "src/multitree/churn.hpp"
#include "src/multitree/greedy.hpp"
#include "src/multitree/schedule.hpp"
#include "src/multitree/structured.hpp"
#include "src/multitree/validate.hpp"
#include "src/util/prng.hpp"

namespace streamcast {
namespace {

using core::Scheme;
using core::SessionConfig;
using core::run_session;

class FuzzSeeds : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSeeds, RandomSessionsRespectUniversalInvariants) {
  util::Prng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  for (int round = 0; round < 6; ++round) {
    const auto n =
        static_cast<sim::NodeKey>(1 + rng.below(400));
    const int d = static_cast<int>(1 + rng.below(6));
    const Scheme scheme = std::array{
        Scheme::kMultiTreeGreedy, Scheme::kMultiTreeStructured,
        Scheme::kHypercube,       Scheme::kHypercubeGrouped,
        Scheme::kChain,           Scheme::kSingleTree,
    }[rng.below(6)];
    const auto report =
        run_session(SessionConfig{.scheme = scheme, .n = n, .d = d}).qos;

    // Universal sanity: nobody starts before the stream exists, nobody
    // beats the fluid dedicated-source bound (elapsed convention; the
    // single-tree baseline is exempt — its BoostedCluster gives receivers
    // d-copies-per-slot uplink, outside the bound's model), buffers and
    // neighbors are positive and bounded by N.
    EXPECT_GE(report.worst_delay, 0);
    if (scheme != Scheme::kSingleTree) {
      EXPECT_GE(report.worst_delay + 1, fluid::min_worst_delay(n, d))
          << "scheme=" << report.scheme << " n=" << n << " d=" << d;
    }
    EXPECT_LE(report.average_delay, static_cast<double>(report.worst_delay));
    EXPECT_GE(report.max_buffer, 1u);
    EXPECT_LE(report.max_neighbors, static_cast<std::size_t>(n));
    EXPECT_GT(report.transmissions, 0);
  }
}

TEST_P(FuzzSeeds, RandomForestsKeepAppendixProperties) {
  util::Prng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
  for (int round = 0; round < 12; ++round) {
    const auto n = static_cast<sim::NodeKey>(1 + rng.below(3000));
    const int d = static_cast<int>(1 + rng.below(9));
    const multitree::Forest f = rng.chance(0.5)
                                    ? multitree::build_greedy(n, d)
                                    : multitree::build_structured(n, d);
    ASSERT_TRUE(multitree::validate_forest(f).ok) << "n=" << n << " d=" << d;
    // Closed-form delay within Theorem 2 everywhere.
    EXPECT_LE(multitree::closed_form_worst_delay(f),
              multitree::worst_delay_bound(n, d));
  }
}

TEST_P(FuzzSeeds, RandomChurnSequencesKeepInvariants) {
  util::Prng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
  const auto n0 = static_cast<sim::NodeKey>(3 + rng.below(60));
  const int d = static_cast<int>(1 + rng.below(4));
  const auto policy = rng.chance(0.5) ? multitree::ChurnPolicy::kEager
                                      : multitree::ChurnPolicy::kLazy;
  multitree::ChurnForest cf(n0, d, policy);
  for (int op = 0; op < 120; ++op) {
    if (cf.n() > 2 && rng.chance(0.5)) {
      const auto id = static_cast<sim::NodeKey>(
          1 + rng.below(static_cast<std::uint64_t>(cf.n())));
      cf.remove(cf.peer_at(id));
    } else {
      cf.add();
    }
    ASSERT_TRUE(multitree::validate_forest(cf.forest()).ok)
        << "n0=" << n0 << " d=" << d << " op=" << op;
    // Vacancies never reach the interior pool.
    ASSERT_LE(cf.forest().n_pad() - cf.n(), d);
  }
}

TEST_P(FuzzSeeds, HypercubeDecompositionAlwaysConsistent) {
  util::Prng rng(static_cast<std::uint64_t>(GetParam()) * 271 + 9);
  for (int round = 0; round < 20; ++round) {
    const auto n = static_cast<sim::NodeKey>(1 + rng.below(100000));
    const auto chain = hypercube::decompose_chain(n);
    sim::NodeKey covered = 0;
    sim::Slot start = 0;
    int prev_k = 1 << 30;
    for (const auto& seg : chain) {
      EXPECT_EQ(seg.start, start);
      EXPECT_LE(seg.k, prev_k);  // dimensions are non-increasing
      covered += seg.receivers();
      start += seg.k;
      prev_k = seg.k;
    }
    EXPECT_EQ(covered, n);
    // Theorem 4 closed form holds at every size.
    if (n >= 2) {
      EXPECT_LE(hypercube::average_delay(n), hypercube::theorem4_bound(n));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Range(0, 10));

}  // namespace
}  // namespace streamcast
