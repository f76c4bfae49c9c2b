// Fluid-bound tests: the closed forms, their consistency with every scheme
// we simulate (no scheme beats a lower bound), and the optimality of
// Proposition 1 against the snowball limit.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/session.hpp"
#include "src/fluid/bounds.hpp"
#include "src/hypercube/analysis.hpp"
#include "src/multitree/analysis.hpp"

namespace streamcast::fluid {
namespace {

TEST(FluidRate, CapacityFormula) {
  // Rate-matched peers (u_p = 1) sustain rate ~1 regardless of N.
  EXPECT_DOUBLE_EQ(max_streaming_rate(100, 3.0, 1.0), 1.03);
  // Starved peers cap the rate below 1.
  EXPECT_LT(max_streaming_rate(100, 2.0, 0.5), 1.0);
  // Small swarms are source-limited.
  EXPECT_DOUBLE_EQ(max_streaming_rate(1, 0.5, 10.0), 0.5);
}

TEST(FluidDelay, SnowballClosedForm) {
  // d = 1: holders 1, 3, 7, 15, ... -> smallest t with 2^t - 1 >= N.
  EXPECT_EQ(min_worst_delay(1, 1), 1);
  EXPECT_EQ(min_worst_delay(3, 1), 2);
  EXPECT_EQ(min_worst_delay(7, 1), 3);
  EXPECT_EQ(min_worst_delay(8, 1), 4);
  EXPECT_EQ(min_worst_delay(1023, 1), 10);
  // d = 3: holders 3, 9, 21, 45, ...
  EXPECT_EQ(min_worst_delay(3, 3), 1);
  EXPECT_EQ(min_worst_delay(9, 3), 2);
  EXPECT_EQ(min_worst_delay(10, 3), 3);
}

TEST(FluidDelay, PropositionOneIsOptimal) {
  // The special-N hypercube scheme achieves the unicast-source fluid
  // minimum exactly: k+1 elapsed slots (start index k) at N = 2^k - 1.
  for (int k = 2; k <= 12; ++k) {
    const NodeKey n = (NodeKey{1} << k) - 1;
    EXPECT_EQ(hypercube::measured_worst_delay(n) + 1,
              min_worst_delay_unicast_source(n))
        << "k=" << k;
    // And never below the dedicated-source universal bound.
    EXPECT_GE(hypercube::measured_worst_delay(n) + 1, min_worst_delay(n, 1));
  }
}

TEST(FluidDelay, UnicastSourceVariant) {
  EXPECT_EQ(min_worst_delay_unicast_source(1), 1);
  EXPECT_EQ(min_worst_delay_unicast_source(2), 2);
  EXPECT_EQ(min_worst_delay_unicast_source(3), 3);
  EXPECT_EQ(min_worst_delay_unicast_source(4), 3);
  EXPECT_EQ(min_worst_delay_unicast_source(1023), 11);
  // Always at least the dedicated-source bound at d = 1.
  for (const NodeKey n : {2, 9, 100, 5000}) {
    EXPECT_GE(min_worst_delay_unicast_source(n), min_worst_delay(n, 1));
  }
}

TEST(FluidDelay, NoSchemeBeatsTheLowerBound) {
  for (const NodeKey n : {10, 50, 200, 500}) {
    for (const int d : {2, 3}) {
      const auto mt =
          core::run_session(
              core::SessionConfig{.scheme = core::Scheme::kMultiTreeGreedy,
                                  .n = n,
                                  .d = d})
              .qos;
      // The measured start index corresponds to an elapsed delay of +1.
      EXPECT_GE(mt.worst_delay + 1, min_worst_delay(n, d))
          << "n=" << n << " d=" << d;
      EXPECT_GE(mt.average_delay + 1.0, min_average_delay(n, d));
    }
    const auto hc = core::run_session(
                        core::SessionConfig{
                            .scheme = core::Scheme::kHypercube, .n = n, .d = 1})
                        .qos;
    EXPECT_GE(hc.worst_delay + 1, min_worst_delay(n, 1));
    EXPECT_GE(hc.average_delay + 1.0, min_average_delay(n, 1));
  }
}

TEST(FluidDelay, AverageBelowWorst) {
  for (const NodeKey n : {5, 100, 4096}) {
    for (const int d : {1, 2, 4}) {
      EXPECT_LE(min_average_delay(n, d),
                static_cast<double>(min_worst_delay(n, d)));
      EXPECT_GE(min_average_delay(n, d), 1.0);
    }
  }
}

TEST(FluidDelay, MultiTreeGapIsTheDOverLogDFactor) {
  // The multi-tree bound h*d exceeds the fluid minimum by roughly
  // d / log2(d) for large N — the price of O(d) neighbors and in-order
  // round-robin forwarding.
  const NodeKey n = 100'000;
  for (const int d : {2, 4, 8}) {
    const double ratio =
        static_cast<double>(multitree::worst_delay_bound(n, d)) /
        static_cast<double>(min_worst_delay(n, d));
    const double predicted = d / std::log2(static_cast<double>(d));
    EXPECT_NEAR(ratio, predicted, 0.45 * predicted) << "d=" << d;
  }
}

TEST(FluidMisc, SubstreamMinimumAndErrors) {
  EXPECT_EQ(min_substreams_for_unit_uplink(3), 3);
  EXPECT_THROW(min_worst_delay(0, 1), std::invalid_argument);
  EXPECT_THROW(min_worst_delay(5, 0), std::invalid_argument);
  EXPECT_THROW(min_average_delay(0, 2), std::invalid_argument);
  EXPECT_THROW(max_streaming_rate(0, 1, 1), std::invalid_argument);
}

}  // namespace
}  // namespace streamcast::fluid
