#include <gtest/gtest.h>

#include "src/util/dot.hpp"

namespace streamcast::util {
namespace {

const std::vector<int> kTree{-1, 0, 0, 1};  // 0 -> {1,2}, 1 -> {3}
const auto kLabel = [](int i) {
  std::string label = "n";
  label += std::to_string(i);
  return label;
};

TEST(Dot, TreeStructure) {
  const std::string dot = tree_to_dot("demo", kTree, kLabel);
  EXPECT_NE(dot.find("digraph \"demo\""), std::string::npos);
  EXPECT_NE(dot.find("\"0\" [label=\"n0\"]"), std::string::npos);
  EXPECT_NE(dot.find("\"0\" -> \"1\""), std::string::npos);
  EXPECT_NE(dot.find("\"0\" -> \"2\""), std::string::npos);
  EXPECT_NE(dot.find("\"1\" -> \"3\""), std::string::npos);
  // No edge into the root.
  EXPECT_EQ(dot.find("-> \"0\""), std::string::npos);
}

TEST(Dot, ForestSubgraphs) {
  const std::string dot = forest_to_dot("f", {kTree, kTree}, kLabel);
  EXPECT_NE(dot.find("subgraph cluster_T0"), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_T1"), std::string::npos);
  // Per-tree prefixes keep the two copies distinct.
  EXPECT_NE(dot.find("\"t0_1\""), std::string::npos);
  EXPECT_NE(dot.find("\"t1_1\""), std::string::npos);
  EXPECT_NE(dot.find("\"t1_0\" -> \"t1_2\""), std::string::npos);
}

TEST(Dot, SingleNodeTree) {
  const std::string dot = tree_to_dot("one", {-1}, kLabel);
  EXPECT_NE(dot.find("\"0\" [label=\"n0\"]"), std::string::npos);
  EXPECT_EQ(dot.find("->"), std::string::npos);
}

}  // namespace
}  // namespace streamcast::util
