#include "src/multitree/structured.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

namespace streamcast::multitree {

namespace {

/// Rotates v right by one: the last element becomes the first.
void rotate_right(std::vector<NodeKey>& v) {
  if (v.size() > 1) std::rotate(v.rbegin(), v.rbegin() + 1, v.rend());
}

std::vector<NodeKey> concat_tree(const std::vector<std::vector<NodeKey>>& gs,
                                 const std::vector<NodeKey>& gd) {
  std::vector<NodeKey> tree{kSource};
  for (const auto& g : gs) tree.insert(tree.end(), g.begin(), g.end());
  tree.insert(tree.end(), gd.begin(), gd.end());
  return tree;
}

}  // namespace

Forest build_structured(NodeKey n, int d) {
  Forest forest(n, d);
  const NodeKey interior = forest.interior();

  // Step 1: initialization. Group order [G_0, ..., G_{d-1}]; T_0 = G ⊕ G_d.
  std::vector<std::vector<NodeKey>> groups;
  groups.reserve(static_cast<std::size_t>(d));
  for (int g = 0; g < d; ++g) groups.push_back(forest.group(g));
  std::vector<NodeKey> gd = forest.group(d);
  forest.set_tree(0, concat_tree(groups, gd));

  // P = d / gcd(I, d); with I = 0 every interior group is empty and the
  // intra-group rotation is a no-op, so any positive P works.
  const std::int64_t p =
      interior == 0 ? d : d / std::gcd(static_cast<std::int64_t>(interior),
                                       static_cast<std::int64_t>(d));

  for (int k = 1; k < d; ++k) {
    // Step 2: rotate the group order left; G_k moves to the front.
    std::rotate(groups.begin(), groups.begin() + 1, groups.end());
    // Step 3: after every P rotations, rotate each interior group's
    // elements right by one.
    if (k % p == 0) {
      for (auto& g : groups) rotate_right(g);
    }
    // Step 4: rotate the perpetual-leaf group right and build T_k.
    rotate_right(gd);
    forest.set_tree(k, concat_tree(groups, gd));
  }
  return forest;
}

}  // namespace streamcast::multitree
