// Structured disjoint tree construction (§2.2.1).
//
// Tree T_0 is filled in BFS order with G_0 ⊕ G_1 ⊕ ... ⊕ G_{d-1} ⊕ G_d. Each
// subsequent tree rotates the group order left by one (so G_k leads tree T_k
// and provides its interior nodes); after every P = d / gcd(I, d) rotations
// the elements *within* each interior group rotate right by one; and G_d
// rotates right by one before every tree. The appendix proof shows the
// resulting positions of any node are pairwise non-congruent mod d, which is
// exactly the collision-freedom the round-robin schedule needs.
//
// envelope::Lattice (src/static/lattice.hpp) computes the same placement in
// O(1) per query, in both directions, without building the forest; this
// procedure stays the reference the lattice is tested against.
#pragma once

#include "src/multitree/forest.hpp"

namespace streamcast::multitree {

/// Builds the structured forest for n receivers and degree d.
Forest build_structured(NodeKey n, int d);

}  // namespace streamcast::multitree
