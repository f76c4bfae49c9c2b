// Construction tests: exact reproduction of the paper's Figure 3 instance
// (N = 15, d = 3) for both schemes, and the appendix correctness properties
// swept over an (N, d) grid.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "src/multitree/forest.hpp"
#include "src/multitree/greedy.hpp"
#include "src/multitree/structured.hpp"
#include "src/multitree/validate.hpp"
#include "src/static/lattice.hpp"

namespace streamcast::multitree {
namespace {

std::vector<NodeKey> positions_1_to_n(const Forest& f, int k) {
  std::vector<NodeKey> out;
  for (NodeKey pos = 1; pos <= f.n_pad(); ++pos) {
    out.push_back(f.node_at(k, pos));
  }
  return out;
}

TEST(ForestBasics, GroupSizesMatchPaper) {
  // N = 15, d = 3 (Figure 3): I = 4, G_0..G_2 of size 4, G_3 = {13,14,15}.
  const Forest f(15, 3);
  EXPECT_EQ(f.interior(), 4);
  EXPECT_EQ(f.n_pad(), 15);
  EXPECT_EQ(f.group(0), (std::vector<NodeKey>{1, 2, 3, 4}));
  EXPECT_EQ(f.group(1), (std::vector<NodeKey>{5, 6, 7, 8}));
  EXPECT_EQ(f.group(2), (std::vector<NodeKey>{9, 10, 11, 12}));
  EXPECT_EQ(f.group(3), (std::vector<NodeKey>{13, 14, 15}));
}

TEST(ForestBasics, PaddingAddsDummiesOnlyAtTheTail) {
  const Forest f(16, 3);  // I = ceil(16/3)-1 = 5, n_pad = 18
  EXPECT_EQ(f.interior(), 5);
  EXPECT_EQ(f.n_pad(), 18);
  EXPECT_FALSE(f.is_dummy(16));
  EXPECT_TRUE(f.is_dummy(17));
  EXPECT_TRUE(f.is_dummy(18));
  EXPECT_EQ(f.group(3), (std::vector<NodeKey>{16, 17, 18}));
}

TEST(ForestBasics, PositionArithmetic) {
  const Forest f(15, 3);
  EXPECT_EQ(f.parent_pos(1), 0);
  EXPECT_EQ(f.parent_pos(3), 0);
  EXPECT_EQ(f.parent_pos(4), 1);
  EXPECT_EQ(f.parent_pos(6), 1);
  EXPECT_EQ(f.parent_pos(13), 4);
  EXPECT_EQ(f.child_pos(1, 0), 4);
  EXPECT_EQ(f.child_pos(4, 2), 15);
  EXPECT_EQ(f.child_index(1), 0);
  EXPECT_EQ(f.child_index(3), 2);
  EXPECT_EQ(f.child_index(15), 2);
  EXPECT_EQ(f.depth_of(1), 1);
  EXPECT_EQ(f.depth_of(12), 2);
  EXPECT_EQ(f.depth_of(13), 3);
  EXPECT_EQ(f.height(), 3);
}

TEST(StructuredConstruction, ReproducesFigure3a) {
  const Forest f = build_structured(15, 3);
  EXPECT_EQ(positions_1_to_n(f, 0),
            (std::vector<NodeKey>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                  14, 15}));
  EXPECT_EQ(positions_1_to_n(f, 1),
            (std::vector<NodeKey>{5, 6, 7, 8, 9, 10, 11, 12, 1, 2, 3, 4, 15,
                                  13, 14}));
  EXPECT_EQ(positions_1_to_n(f, 2),
            (std::vector<NodeKey>{9, 10, 11, 12, 1, 2, 3, 4, 5, 6, 7, 8, 14,
                                  15, 13}));
}

TEST(GreedyConstruction, ReproducesFigure3b) {
  const Forest f = build_greedy(15, 3);
  // T_0 is the identity layout in both schemes.
  EXPECT_EQ(positions_1_to_n(f, 0),
            (std::vector<NodeKey>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                  14, 15}));
  // Figure 3(b): T_1 = S / 5 6 7 8 / 3 1 2 9 4 11 12 10 / 14 15 13.
  EXPECT_EQ(positions_1_to_n(f, 1),
            (std::vector<NodeKey>{5, 6, 7, 8, 3, 1, 2, 9, 4, 11, 12, 10, 14,
                                  15, 13}));
}

TEST(GreedyConstruction, ParitySlotRuleHolds) {
  for (const NodeKey n : {15, 16, 18, 30, 100}) {
    for (const int d : {2, 3, 4, 5}) {
      const Forest f = build_greedy(n, d);
      const auto report = validate_greedy_parity(f);
      EXPECT_TRUE(report.ok) << "n=" << n << " d=" << d << ": "
                             << (report.errors.empty() ? ""
                                                       : report.errors[0]);
    }
  }
}

TEST(GreedyConstruction, HandlesThePaperInfeasibleCase) {
  // N = 18, d = 3: the paper's literal Step 2 cannot fill T_1's interior
  // from G_1 = {6..10} (two parity-1 positions, one parity-1 candidate).
  // Our generalized pool must still produce a fully valid forest.
  const Forest f = build_greedy(18, 3);
  EXPECT_TRUE(validate_forest(f).ok);
  EXPECT_TRUE(validate_greedy_parity(f).ok);
  // And the borrowed interior node must come from outside G_1.
  std::set<NodeKey> t1_interior;
  for (NodeKey pos = 1; pos <= f.interior(); ++pos) {
    t1_interior.insert(f.node_at(1, pos));
  }
  bool outside_g1 = false;
  for (const NodeKey id : t1_interior) {
    if (id < 6 || id > 10) outside_g1 = true;
  }
  EXPECT_TRUE(outside_g1);
}

TEST(InteriorTreeOf, MatchesGroupMembership) {
  const Forest f = build_greedy(15, 3);
  // G_0 = {1..4} interior in T_0, G_1 = {5..8} in T_1, G_2 = {9..12} in T_2,
  // G_3 = {13,14,15} all-leaf.
  for (NodeKey id = 1; id <= 4; ++id) EXPECT_EQ(f.interior_tree_of(id), 0);
  for (NodeKey id = 5; id <= 8; ++id) EXPECT_EQ(f.interior_tree_of(id), 1);
  for (NodeKey id = 9; id <= 12; ++id) EXPECT_EQ(f.interior_tree_of(id), 2);
  for (NodeKey id = 13; id <= 15; ++id) EXPECT_EQ(f.interior_tree_of(id), -1);
}

TEST(PaperStrictGreedy, FeasibilityCharacterization) {
  // d | I or d | (I-1) characterizes when the paper's literal Step 2 has a
  // valid output; verified against the verbatim implementation for a dense
  // grid.
  for (int d = 2; d <= 6; ++d) {
    for (NodeKey n = d; n <= 150; ++n) {
      const bool predicted = paper_strict_greedy_feasible(n, d);
      bool succeeded = true;
      try {
        const Forest f = build_greedy_paper_strict(n, d);
        EXPECT_TRUE(validate_forest(f).ok) << "n=" << n << " d=" << d;
      } catch (const std::runtime_error&) {
        succeeded = false;
      }
      EXPECT_EQ(predicted, succeeded) << "n=" << n << " d=" << d;
    }
  }
}

TEST(PaperStrictGreedy, AgreesWithGeneralizedPoolWhenFeasible) {
  // The generalized pool reproduces the paper's rule verbatim wherever the
  // paper's rule works at all.
  for (int d = 2; d <= 5; ++d) {
    for (NodeKey n = d; n <= 120; ++n) {
      if (!paper_strict_greedy_feasible(n, d)) continue;
      const Forest strict = build_greedy_paper_strict(n, d);
      const Forest pool = build_greedy(n, d);
      for (int k = 0; k < d; ++k) {
        EXPECT_EQ(strict.tree(k), pool.tree(k)) << "n=" << n << " d=" << d;
      }
    }
  }
}

TEST(PaperStrictGreedy, KnownInfeasibleCase) {
  EXPECT_FALSE(paper_strict_greedy_feasible(18, 3));
  EXPECT_THROW(build_greedy_paper_strict(18, 3), std::runtime_error);
  // The paper's own example is feasible (I = 4, d = 3: d | I-1).
  EXPECT_TRUE(paper_strict_greedy_feasible(15, 3));
}

// ---------------------------------------------------------------------------
// Property sweep: both constructions satisfy the appendix invariants for a
// grid of (N, d).
// ---------------------------------------------------------------------------

using GridParam = std::tuple<int, int>;  // (N, d)

class ConstructionGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(ConstructionGrid, StructuredSatisfiesAppendixProperties) {
  const auto [n, d] = GetParam();
  const Forest f = build_structured(n, d);
  const auto report = validate_forest(f);
  EXPECT_TRUE(report.ok) << (report.errors.empty() ? "" : report.errors[0]);
}

TEST_P(ConstructionGrid, GreedySatisfiesAppendixProperties) {
  const auto [n, d] = GetParam();
  const Forest f = build_greedy(n, d);
  const auto report = validate_forest(f);
  EXPECT_TRUE(report.ok) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_TRUE(validate_greedy_parity(f).ok);
}

TEST_P(ConstructionGrid, BothConstructionsShareTreeZeroAndHeight) {
  const auto [n, d] = GetParam();
  const Forest a = build_structured(n, d);
  const Forest b = build_greedy(n, d);
  EXPECT_EQ(a.tree(0), b.tree(0));
  EXPECT_EQ(a.height(), b.height());
}

std::vector<GridParam> construction_grid() {
  std::vector<GridParam> grid;
  for (const int d : {1, 2, 3, 4, 5, 6, 7, 8}) {
    for (const int n : {1,  2,  3,  5,  7,  8,  12, 13, 15, 18,  26,
                        27, 40, 63, 64, 81, 100, 121, 200, 255, 341}) {
      grid.emplace_back(n, d);
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(Grid, ConstructionGrid,
                         ::testing::ValuesIn(construction_grid()),
                         [](const auto& tp) {
                           return "N" + std::to_string(std::get<0>(tp.param)) +
                                  "_d" + std::to_string(std::get<1>(tp.param));
                         });

TEST(StructuredClosedForm, MatchesBuiltTreesOnGrid) {
  // envelope::Lattice::position_of is an O(1) closed form of the whole
  // construction.
  for (const int d : {1, 2, 3, 4, 5, 6}) {
    for (const NodeKey n : {1, 5, 12, 15, 18, 40, 100, 121}) {
      const Forest f = build_structured(n, d);
      const envelope::Lattice lat(n, d);
      for (int k = 0; k < d; ++k) {
        for (NodeKey x = 1; x <= f.n_pad(); ++x) {
          ASSERT_EQ(lat.position_of(k, x), f.position_of(k, x))
              << "n=" << n << " d=" << d << " k=" << k << " x=" << x;
        }
      }
    }
  }
}

}  // namespace
}  // namespace streamcast::multitree
