// Closed-form delay/buffer envelopes of every structured scheme, constexpr.
//
// These are the pure-arithmetic halves of the bounds the paper proves —
// Theorem 2 (multi-tree h*d), Propositions 1–2 (hypercube chain), the §1
// baselines, the §2.1 super-tree structural bound, and the Kim–Srikant
// O(log N) margin for the random-regular overlay — factored out of their
// runtime modules so that:
//
//   * the scheme registry's audit-envelope callables (src/scheme) and the
//     runtime analysis modules (src/multitree, src/hypercube, src/baseline,
//     src/supertree, src/rrd) all evaluate the SAME formulas, and
//   * src/static/proofs.cpp can evaluate them in constant expressions and
//     static_assert the envelopes over a (N, d, T_c) grid — so "the bound
//     holds" becomes a property of the build, not of the runs we happened
//     to execute.
//
// Wide integers (int64) throughout: this layer sits below src/sim in the
// module DAG (tools/layers.toml) and must not import the simulation types.
#pragma once

#include <cstdint>

#include "src/static/lattice.hpp"
#include "src/util/ints.hpp"

namespace streamcast::envelope {

// --- multi-tree (§2.3, Theorem 2) ------------------------------------------

/// Tree height h = ceil( log_d [ N(1 - 1/d) + 1 ] ): the smallest h with
/// d + d^2 + ... + d^h >= N; a d = 1 forest is a chain of height N.
constexpr int tree_height(Count n, Count d) {
  if (d == 1) return static_cast<int>(n);
  // d^h >= N(1 - 1/d) + 1, kept integral: d^h >= ceil( (N(d-1) + d) / d ).
  return util::ceil_log(d, util::ceil_div(n * (d - 1) + d, d));
}

/// Theorem 2: worst-case playback delay T <= h*d; also the sufficient
/// per-node buffer size (in packets).
constexpr Count multitree_delay_bound(Count n, Count d) {
  return static_cast<Count>(tree_height(n, d)) * d;
}

/// Default measurement window of a multi-tree run, 2*d*(height + 2): the
/// scheme registry's overlay and the closed-form replay both read it here.
constexpr Count multitree_default_window(Count n, Count d) {
  return 2 * d * (tree_height(n, d) + 2);
}

/// Slots a multi-tree run simulates past its window, 4 + h*d + 3*d: the
/// worst delay plus room for the last packets' final hops. Shared like the
/// window above.
constexpr Count multitree_horizon_slack(Count n, Count d) {
  return 4 + multitree_delay_bound(n, d) + 3 * d;
}

// --- hypercube chain (§3, Propositions 1–2) --------------------------------

/// Worst-case playback delay of the single-chain scheme: the sum of the
/// cube dimensions k_s over the greedy chain decomposition (segment s
/// starts at start_{s-1} + k_{s-1} and plays k_s later, so the last
/// segment's playback is exactly the running sum).
constexpr Count hypercube_delay_bound(Count n) {
  Count total = 0;
  Count remaining = n;
  while (remaining > 0) {
    const int k = util::floor_log2(static_cast<std::uint64_t>(remaining) + 1);
    total += k;
    remaining -= (Count{1} << k) - 1;
  }
  return total;
}

/// Number of segments in the chain decomposition (the k_s are strictly
/// decreasing, so this is at most floor(log2(N + 1))).
constexpr int hypercube_segments(Count n) {
  int segments = 0;
  Count remaining = n;
  while (remaining > 0) {
    const int k = util::floor_log2(static_cast<std::uint64_t>(remaining) + 1);
    remaining -= (Count{1} << k) - 1;
    ++segments;
  }
  return segments;
}

/// Proposition 1/2 buffer envelope: O(1) buffers, measured <= 3 on every
/// audited grid. A schedule constant, not a function of N.
inline constexpr Count kHypercubeBufferBound = 3;

/// The d-group variant (§3.2 end): the chain scheme runs independently in d
/// near-even groups; the worst delay is the max over the groups' chains.
constexpr Count hypercube_grouped_delay_bound(Count n, Count d) {
  Count worst = 0;
  const Count used = d < n ? d : n;
  Count remaining = n;
  for (Count g = 0; g < used; ++g) {
    // Even split: the first (n mod used) groups take one extra node.
    const Count size = remaining / (used - g) +
                       (remaining % (used - g) != 0 ? 1 : 0);
    const Count delay = hypercube_delay_bound(size);
    if (delay > worst) worst = delay;
    remaining -= size;
  }
  return worst;
}

// --- baselines (§1) --------------------------------------------------------

/// Chain: node i receives packet j in slot j + i - 1.
constexpr Count chain_delay_bound(Count n) { return n - 1; }

/// Depth of node i in the BFS-numbered single d-ary tree (source = 0 at
/// depth 0; node p's children are d*p + 1 .. d*p + d).
constexpr int single_tree_depth(Count i, Count d) {
  int depth = 0;
  while (i > 0) {
    i = (i - 1) / d;
    ++depth;
  }
  return depth;
}

/// Single tree: every hop costs one slot, so the worst playback delay is
/// the deepest receiver's depth minus one.
constexpr Count single_tree_delay_bound(Count n, Count d) {
  return single_tree_depth(n, d) - 1;
}

// --- super-tree composition (§2.1, Theorem 1 structural form) --------------

/// Depth of the BFS-tight backbone over k clusters with source degree D and
/// interior degree D - 1: level 1 holds D supers, level L holds
/// D * (D-1)^(L-1); the depth is the smallest L whose cumulative capacity
/// reaches k. Matches supertree::build_backbone().max_depth() exactly
/// (cross-checked in tests).
constexpr int backbone_depth(Count k_clusters, Count big_d) {
  int level = 1;
  Count level_cap = big_d;
  Count total = big_d;
  while (total < k_clusters) {
    level_cap *= big_d - 1;
    total += level_cap;
    ++level;
  }
  return level;
}

/// Structural delay bound of the multi-tree super-tree composition: packet
/// j reaches the depth-L super node in slot j + L*T_c - 1, its local root
/// T_i later, and the intra-cluster round-robin adds at most its worst-case
/// delay plus one residue-alignment round.
constexpr Count supertree_structural_bound(Count k_clusters, Count big_d,
                                           Count t_c, Count t_i, Count d,
                                           Count max_cluster_size) {
  return backbone_depth(k_clusters, big_d) * t_c + t_i +
         multitree_delay_bound(max_cluster_size, d) + d;
}

/// Same composition with hypercube-chain clusters.
constexpr Count supertree_structural_bound_hypercube(Count k_clusters,
                                                     Count big_d, Count t_c,
                                                     Count t_i,
                                                     Count max_cluster_size) {
  return backbone_depth(k_clusters, big_d) * t_c + t_i +
         hypercube_delay_bound(max_cluster_size);
}

// --- random regular digraph (related work: 1308.6807) ----------------------

/// The audited Kim–Srikant margin: measured worst delays sit at ~log2(N)+1
/// (EXPERIMENTS.md E35); doubling the log term plus a d + 4 margin absorbs
/// unlucky digraph draws without making the O(log N) claim vacuous.
constexpr Count rrd_delay_bound(Count n, Count d) {
  const Count log2n = util::floor_log2(static_cast<std::uint64_t>(n)) + 1;
  return 2 * log2n + d + 4;
}

}  // namespace streamcast::envelope
