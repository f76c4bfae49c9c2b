#include "tests/support/churn_literal.hpp"

#include <stdexcept>
#include <vector>

namespace streamcast::multitree {

namespace {

/// Swaps the positions of nodes a and b in tree k of the mutable tree
/// arrays.
void swap_nodes(std::vector<std::vector<NodeKey>>& trees,
                std::vector<std::vector<NodeKey>>& pos, int k, NodeKey a,
                NodeKey b) {
  auto& tree = trees[static_cast<std::size_t>(k)];
  auto& inverse = pos[static_cast<std::size_t>(k)];
  const NodeKey pa = inverse[static_cast<std::size_t>(a)];
  const NodeKey pb = inverse[static_cast<std::size_t>(b)];
  std::swap(tree[static_cast<std::size_t>(pa)],
            tree[static_cast<std::size_t>(pb)]);
  std::swap(inverse[static_cast<std::size_t>(a)],
            inverse[static_cast<std::size_t>(b)]);
}

}  // namespace

LiteralDeleteResult paper_literal_delete(const Forest& forest,
                                         NodeKey victim) {
  const int d = forest.d();
  const NodeKey n = forest.n();
  if (victim < 1 || victim > n) throw std::invalid_argument("bad victim");

  // Mutable copies of the placement.
  std::vector<std::vector<NodeKey>> trees;
  std::vector<std::vector<NodeKey>> pos;
  for (int k = 0; k < d; ++k) {
    trees.push_back(forest.tree(k));
    std::vector<NodeKey> inverse(static_cast<std::size_t>(forest.n_pad()) + 1,
                                 -1);
    for (NodeKey p = 1; p <= forest.n_pad(); ++p) {
      inverse[static_cast<std::size_t>(
          trees.back()[static_cast<std::size_t>(p)])] = p;
    }
    pos.push_back(std::move(inverse));
  }

  LiteralDeleteResult result{.forest = Forest(n, d),
                             .victim = victim,
                             .boundary = (n - 1) % d == 0,
                             .swaps = 0};

  // x: the last *real* all-leaf node in T_0 (dummies skipped).
  NodeKey x = -1;
  for (NodeKey p = forest.n_pad(); p >= 1; --p) {
    const NodeKey node = trees[0][static_cast<std::size_t>(p)];
    if (!forest.is_dummy(node) && forest.interior_tree_of(node) < 0) {
      x = node;
      break;
    }
  }
  if (x < 0) throw std::logic_error("no all-leaf replacement found");

  // Step 1: swap i with x in all d trees.
  if (victim != x) {
    for (int k = 0; k < d; ++k) swap_nodes(trees, pos, k, victim, x);
    result.swaps += d;
  }

  // Step 2 (boundary only): move the new parents of i into positions
  // N-d .. N-1 of every tree (the paper's literal indices).
  if (result.boundary) {
    std::vector<NodeKey> parents;
    for (int k = 0; k < d; ++k) {
      const NodeKey pi = pos[static_cast<std::size_t>(k)]
                            [static_cast<std::size_t>(victim)];
      parents.push_back(
          trees[static_cast<std::size_t>(k)][static_cast<std::size_t>(
              forest.parent_pos(pi))]);
    }
    for (int k = 0; k < d; ++k) {
      for (int j = 0; j < d; ++j) {
        const NodeKey target_pos = n - d + static_cast<NodeKey>(j);
        if (target_pos < 1) continue;
        const NodeKey occupant =
            trees[static_cast<std::size_t>(k)]
                 [static_cast<std::size_t>(target_pos)];
        const NodeKey p = parents[static_cast<std::size_t>(j)];
        if (occupant == p) continue;
        swap_nodes(trees, pos, k, p, occupant);
        ++result.swaps;
      }
    }
  }

  for (int k = 0; k < d; ++k) {
    result.forest.set_tree(k, std::move(trees[static_cast<std::size_t>(k)]));
  }
  return result;
}

bool survivors_congruent(const Forest& forest, NodeKey skip) {
  const int d = forest.d();
  for (NodeKey node = 1; node <= forest.n_pad(); ++node) {
    if (node == skip) continue;
    std::vector<bool> seen(static_cast<std::size_t>(d), false);
    for (int k = 0; k < d; ++k) {
      const int c = forest.child_index(forest.position_of(k, node));
      if (seen[static_cast<std::size_t>(c)]) return false;
      seen[static_cast<std::size_t>(c)] = true;
    }
  }
  return true;
}

}  // namespace streamcast::multitree
