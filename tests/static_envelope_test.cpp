// The constexpr envelope kit (src/static) against the runtime modules it
// was factored out of: every formula must agree EXACTLY with the
// implementation that used to own it, over a grid wider than the
// static_assert grid in src/static/proofs.cpp. This is the soundness link
// of the compile-time proofs — proofs.cpp asserts properties of the
// constexpr arithmetic; this test pins that arithmetic to the schedules
// and structures the simulator actually runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/baseline/chain.hpp"
#include "src/baseline/single_tree.hpp"
#include "src/hypercube/analysis.hpp"
#include "src/hypercube/arbitrary.hpp"
#include "src/hypercube/grouped.hpp"
#include "src/multitree/analysis.hpp"
#include "src/multitree/schedule.hpp"
#include "src/multitree/structured.hpp"
#include "src/rrd/digraph.hpp"
#include "src/static/envelopes.hpp"
#include "src/static/lattice.hpp"
#include "src/supertree/backbone.hpp"

namespace streamcast {
namespace {

TEST(StaticEnvelope, TreeHeightMatchesRuntime) {
  for (int d = 1; d <= 5; ++d) {
    for (int n = 1; n <= 300; ++n) {
      EXPECT_EQ(envelope::tree_height(n, d), multitree::tree_height(n, d))
          << "n=" << n << " d=" << d;
    }
  }
}

TEST(StaticEnvelope, StructuredDelayMatchesScheduleClosedForm) {
  for (int d = 1; d <= 4; ++d) {
    for (int n = 1; n <= 120; ++n) {
      const auto forest = multitree::build_structured(n, d);
      EXPECT_EQ(envelope::structured_worst_delay(n, d),
                multitree::closed_form_worst_delay(forest))
          << "n=" << n << " d=" << d;
      // Pipelined live mode, per receiver.
      const auto pipelined = multitree::closed_form_delays_pipelined(forest);
      const envelope::Lattice lat(n, d);
      sim::Slot worst = 0;
      for (int x = 1; x <= n; ++x) {
        const auto a = static_cast<sim::Slot>(
            envelope::structured_delay_pipelined(lat, x));
        EXPECT_EQ(a, pipelined[static_cast<std::size_t>(x)])
            << "n=" << n << " d=" << d << " x=" << x;
        worst = std::max(worst, a);
      }
      EXPECT_EQ(worst, static_cast<sim::Slot>(
                           envelope::structured_worst_delay_pipelined(n, d)));
    }
  }
}

TEST(StaticEnvelope, ArrivalOffsetTableMatchesRecurrence) {
  for (envelope::Count d = 1; d <= 5; ++d) {
    for (envelope::Count n_pad = 1; n_pad <= 200; ++n_pad) {
      const auto table = envelope::arrival_offsets(n_pad, d);
      ASSERT_EQ(table.size(), static_cast<std::size_t>(n_pad) + 1);
      EXPECT_EQ(table[0], 0);
      for (envelope::Count pos = 1; pos <= n_pad; ++pos) {
        EXPECT_EQ(table[static_cast<std::size_t>(pos)],
                  envelope::arrival_offset(pos, d))
            << "n_pad=" << n_pad << " d=" << d << " pos=" << pos;
      }
    }
  }
}

TEST(StaticEnvelope, LatticeMatchesStructuredForest) {
  // The O(1) placement against the §2.2.1 rotation procedure, both ways.
  for (int d = 1; d <= 6; ++d) {
    for (int n = 1; n <= 121; ++n) {
      const multitree::Forest forest = multitree::build_structured(n, d);
      const envelope::Lattice lat(n, d);
      ASSERT_EQ(lat.n_pad, forest.n_pad()) << "n=" << n << " d=" << d;
      for (int k = 0; k < d; ++k) {
        for (int x = 1; x <= lat.n_pad; ++x) {
          ASSERT_EQ(lat.position_of(k, x), forest.position_of(k, x))
              << "n=" << n << " d=" << d << " k=" << k << " x=" << x;
          ASSERT_EQ(lat.node_at(k, x), forest.node_at(k, x))
              << "n=" << n << " d=" << d << " k=" << k << " pos=" << x;
        }
      }
    }
  }
}

TEST(StaticEnvelope, LatticeCursorMatchesPositionAndNodeAt) {
  // The walk must agree with the dividing formulas at every key up to
  // n_pad, across I = 0 (n <= d), I < d and gcd(I, d) > 1 lattices.
  bool saw_no_interior = false;
  bool saw_narrow = false;
  bool saw_rotation = false;
  for (envelope::Count d = 1; d <= 6; ++d) {
    for (envelope::Count n = 1; n <= 300; ++n) {
      const envelope::Lattice lat(n, d);
      const envelope::Count width = lat.interior;
      saw_no_interior |= width == 0;
      saw_narrow |= width > 0 && width < d;
      saw_rotation |= width > 0 && std::gcd(width, d) > 1;
      envelope::LatticeCursor cursor(lat);
      for (envelope::Count x = 1; x <= lat.n_pad; ++x) {
        for (envelope::Count k = 0; k < d; ++k) {
          const envelope::Count pos = lat.position_of(k, x);
          ASSERT_EQ(cursor.position(k), pos)
              << "n=" << n << " d=" << d << " k=" << k << " x=" << x;
          const envelope::Count parent_pos = (pos - 1) / d;
          ASSERT_EQ(cursor.parent(k),
                    parent_pos == 0 ? 0 : lat.node_at(k, parent_pos))
              << "n=" << n << " d=" << d << " k=" << k << " x=" << x;
        }
        const envelope::Count tree = cursor.interior_tree();
        ASSERT_EQ(tree, x <= d * width ? (x - 1) / width : -1)
            << "n=" << n << " d=" << d << " x=" << x;
        if (tree >= 0) {
          std::vector<envelope::Count> children;
          cursor.for_each_child(
              [&](envelope::Count child) { children.push_back(child); });
          ASSERT_EQ(children.size(), static_cast<std::size_t>(d));
          const envelope::Count pos = lat.position_of(tree, x);
          for (envelope::Count c = 0; c < d; ++c) {
            ASSERT_EQ(children[static_cast<std::size_t>(c)],
                      lat.node_at(tree, d * pos + 1 + c))
                << "n=" << n << " d=" << d << " x=" << x << " c=" << c;
          }
        }
        if (x < lat.n_pad) cursor.advance();
      }
    }
  }
  EXPECT_TRUE(saw_no_interior);
  EXPECT_TRUE(saw_narrow);
  EXPECT_TRUE(saw_rotation);
}

TEST(StaticEnvelope, HypercubeMatchesDecomposition) {
  for (int n = 1; n <= 3000; ++n) {
    const auto chain = hypercube::decompose_chain(n);
    EXPECT_EQ(envelope::hypercube_delay_bound(n),
              chain.back().playback_delay())
        << "n=" << n;
    EXPECT_EQ(envelope::hypercube_segments(n),
              static_cast<int>(chain.size()))
        << "n=" << n;
  }
  for (int d = 1; d <= 6; ++d) {
    for (int n = 1; n <= 300; ++n) {
      sim::Slot worst = 0;
      for (const auto& g : hypercube::decompose_grouped(n, d)) {
        worst = std::max(worst, g.chain.back().playback_delay());
      }
      EXPECT_EQ(envelope::hypercube_grouped_delay_bound(n, d), worst)
          << "n=" << n << " d=" << d;
    }
  }
}

TEST(StaticEnvelope, BaselinesMatchRuntime) {
  for (int d = 1; d <= 5; ++d) {
    for (int n = 1; n <= 300; ++n) {
      EXPECT_EQ(envelope::single_tree_depth(n, d),
                baseline::single_tree_depth(n, d));
      EXPECT_EQ(envelope::single_tree_delay_bound(n, d),
                baseline::single_tree_worst_delay(n, d));
      EXPECT_EQ(envelope::chain_delay_bound(n),
                baseline::chain_worst_delay(n));
    }
  }
}

TEST(StaticEnvelope, BackboneDepthMatchesBuiltBackbone) {
  for (int big_d = 3; big_d <= 6; ++big_d) {  // build_backbone needs D >= 3
    for (int k = 1; k <= 200; ++k) {
      EXPECT_EQ(envelope::backbone_depth(k, big_d),
                supertree::build_backbone(k, big_d).max_depth())
          << "k=" << k << " D=" << big_d;
    }
  }
}

TEST(StaticEnvelope, RrdBoundMatchesRuntime) {
  for (int d = 2; d <= 5; ++d) {
    for (int n = 2; n <= 600; ++n) {
      EXPECT_EQ(envelope::rrd_delay_bound(n, d), rrd::delay_bound(n, d));
    }
  }
}

}  // namespace
}  // namespace streamcast
