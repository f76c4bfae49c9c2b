// Compile-time model of the structured multi-tree position lattice.
//
// PR 6's closed-form replay (src/scale/replay.cpp) observed that a lossless
// structured run is a pure function of (N, d): positions, arrival offsets,
// playback delays and buffer occupancies are all integer arithmetic on the
// padded complete-forest lattice. This header is that arithmetic made
// `constexpr`, so the same formulas serve three masters from one source of
// truth:
//
//   * src/scale/replay.cpp evaluates them at runtime for the million-node
//     replay (byte-identical to the per-slot pump, regression-tested),
//     walking the receivers with LatticeCursor, the division-free
//     incremental form of position_of and node_at;
//   * src/multitree delegates its closed-form analysis to them;
//   * src/static/proofs.cpp evaluates them at *compile time* and
//     static_asserts the paper's Theorem 2 envelope over a (N, d) grid — a
//     violated bound is a build error, not a failed run.
//
// Everything here uses wide integers (int64) deliberately: this layer sits
// below src/sim in the module DAG (tools/layers.toml) and must not import
// the simulation vocabulary; callers narrow at the boundary.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "src/util/ints.hpp"

namespace streamcast::envelope {

using Count = std::int64_t;

/// The placement of the §2.2.1 structured forest in closed form: O(1)
/// arithmetic in both directions between node keys and per-tree positions.
/// multitree::build_structured, which runs the rotation procedure itself,
/// is the reference it is tested against.
struct Lattice {
  Count n = 0;
  Count d = 0;
  Count interior = 0;  // I = ceil(n/d) - 1
  Count n_pad = 0;     // d * (I + 1)
  Count p = 1;         // intra-group rotation period P = d / gcd(I, d)

  constexpr Lattice(Count n_in, Count d_in) : n(n_in), d(d_in) {
    interior = util::ceil_div(n, d) - 1;
    n_pad = d * (interior + 1);
    p = interior == 0 ? 1 : d / std::gcd(interior, d);
  }

  /// Position of node x in tree k. After k group rotations G_i leads block
  /// (i - k) mod d, each interior group's elements have rotated right
  /// floor(k / P) times and G_d has rotated right k times.
  constexpr Count position_of(Count k, Count x) const {
    if (x > d * interior) {
      const Count j = x - d * interior - 1;
      return d * interior + (j + k) % d + 1;
    }
    const Count i = (x - 1) / interior;
    const Count j = (x - 1) % interior;
    const Count block = ((i - k) % d + d) % d;
    const Count slot = (j + k / p) % interior;
    return block * interior + slot + 1;
  }

  /// Exact inverse of position_of: the node at position pos of tree k.
  constexpr Count node_at(Count k, Count pos) const {
    if (pos > d * interior) {
      const Count off = pos - d * interior - 1;
      const Count j = util::mod_floor(off - k, d);
      return d * interior + j + 1;
    }
    const Count block = (pos - 1) / interior;
    const Count slot = (pos - 1) % interior;
    const Count i = (block + k) % d;
    const Count j = util::mod_floor(slot - k / p, interior);
    return i * interior + j + 1;
  }
};

/// Walks the receivers x = 1, 2, ... of a Lattice in key order, from x = 1,
/// and keeps for every tree k what position_of(k, x) and node_at(k, parent)
/// would return, without their divisions. The receivers of group
/// i = (x-1)/I sit at consecutive positions of one block in every tree,
/// with an intra-block rotation of floor(k/P) < gcd(I, d) <= I, so a step
/// adds one to each tree's position and to the remainder of its parent
/// position. Divisions remain only where a group starts or a rotated
/// position wraps inside its block (at most 2d per group of I receivers)
/// and once per for_each_child().
class LatticeCursor {
 public:
  explicit LatticeCursor(const Lattice& lat)
      : lat_(lat),
        trees_(static_cast<std::size_t>(lat.d)),
        group_(lat.interior == 0 ? lat.d : 0) {
    for (Count k = 0; k < lat.d; ++k) at(k).rot = k / lat.p;
    enter_group();
  }

  /// lat.position_of(k, x) for the current receiver x.
  Count position(Count k) const { return at(k).pos; }

  /// The key of x's parent in tree k, 0 for the source. Parents sit at
  /// positions 1..I of block 0 (tree k's group-k receivers), where
  /// node_at(k, q) = k·I + ((q − 1 − floor(k/P)) mod I) + 1.
  Count parent(Count k) const {
    const Tree& t = at(k);
    if (t.parent_pos == 0) return 0;
    Count j = t.parent_pos - 1 - t.rot;
    if (j < 0) j += lat_.interior;
    return k * lat_.interior + j + 1;
  }

  /// The one tree in which x has children (its group), or -1 for a tail
  /// receiver (x > d·I), which is a leaf in every tree.
  Count interior_tree() const { return group_ < lat_.d ? group_ : -1; }

  /// Calls f(lat.node_at(i, c)) for the d child positions c of x in its
  /// interior tree i, in position order; keys above n are dummies.
  /// The children are consecutive positions: divide once, then step.
  template <class F>
  void for_each_child(F&& f) const {
    const Count i = group_;
    const Count d = lat_.d;
    const Count width = lat_.interior;
    const Count first = d * at(i).pos;  // child position - 1 of child 0
    if (first >= d * width) {  // x holds position I: children are the tail
      for (Count c = 0; c < d; ++c) {
        f(d * width + (c >= i ? c - i : c - i + d) + 1);
      }
      return;
    }
    Count block = first / width;
    Count slot = first % width;
    for (Count c = 0; c < d; ++c) {
      Count owner = block + i;
      if (owner >= d) owner -= d;
      Count j = slot - at(i).rot;
      if (j < 0) j += width;
      f(owner * width + j + 1);
      if (++slot == width) {
        slot = 0;
        ++block;
      }
    }
  }

  /// Moves to receiver x + 1. A step from x = n_pad stays in bounds, and
  /// what it leaves names no receiver.
  void advance() {
    if (group_ == lat_.d) {  // tail: tree k holds t = x−dI−1 at (t+k) mod d
      for (Tree& t : trees_) {
        if (++t.pos > lat_.n_pad) t.pos = lat_.d * lat_.interior + 1;
      }
      return;
    }
    if (++offset_ == lat_.interior) {
      offset_ = 0;
      ++group_;
      enter_group();
      return;
    }
    for (Tree& t : trees_) {
      if (offset_ + t.rot == lat_.interior) {  // the rotated slot wraps to 0
        t.pos -= lat_.interior - 1;
        locate_parent(t);
      } else {
        ++t.pos;
        if (++t.parent_rem == lat_.d) {
          t.parent_rem = 0;
          ++t.parent_pos;
        }
      }
    }
  }

 private:
  struct Tree {
    Count rot = 0;         // floor(k/P)
    Count pos = 0;         // position of x in this tree
    Count parent_pos = 0;  // (pos − 1) / d
    Count parent_rem = 0;  // (pos − 1) mod d
  };

  Tree& at(Count k) { return trees_[static_cast<std::size_t>(k)]; }
  const Tree& at(Count k) const { return trees_[static_cast<std::size_t>(k)]; }

  void locate_parent(Tree& t) const {
    t.parent_pos = (t.pos - 1) / lat_.d;
    t.parent_rem = (t.pos - 1) % lat_.d;
  }

  // Positions of the first receiver of group_ (offset 0): block
  // (group − k) mod d, slot floor(k/P). Group d is the tail, whose parent
  // in every tree is position I.
  void enter_group() {
    for (Count k = 0; k < lat_.d; ++k) {
      Tree& t = at(k);
      if (group_ == lat_.d) {
        t.pos = lat_.d * lat_.interior + k + 1;
        t.parent_pos = lat_.interior;
        continue;
      }
      const Count block = group_ >= k ? group_ - k : group_ - k + lat_.d;
      t.pos = block * lat_.interior + t.rot + 1;
      locate_parent(t);
    }
  }

  Lattice lat_;
  std::vector<Tree> trees_;
  Count group_;       // i = (x−1)/I, or d in the tail
  Count offset_ = 0;  // j = (x−1) mod I
};

/// Arrival offset A(p) of the round-robin schedule (§2.2.3, identical for
/// every tree): tree-k packet k + m*d reaches position p at slot m*d + A(p).
/// The recurrence, evaluated up the parent chain:
///     A(child at index c of q) = A(q) + 1 + ((c - A(q) - 1) mod d),
/// with A(p) = (p - 1) mod d in level 1.
constexpr Count arrival_offset(Count pos, Count d) {
  const Count c = (pos - 1) % d;
  if (pos <= d) return c;
  const Count parent = arrival_offset((pos - 1) / d, d);
  return parent + 1 + util::mod_floor(c - parent - 1, d);
}

/// A(p) for every position p in [1, n_pad]; index 0 is unused (0). The
/// memoized form of arrival_offset: positions are parent-major, so one
/// forward pass resolves every parent before its children — O(n_pad)
/// instead of O(n_pad · height). Any forest on the lattice (structured or
/// greedy) shares the table, since positions alone determine it. The
/// children q·d + 1 .. q·d + d of position q step the remainder
/// (c − A(q) − 1) mod d by one each, so one remainder per parent suffices.
inline std::vector<Count> arrival_offsets(Count n_pad, Count d) {
  std::vector<Count> offset(static_cast<std::size_t>(n_pad) + 1, 0);
  Count pos = 1;
  for (; pos <= d && pos <= n_pad; ++pos) {
    offset[static_cast<std::size_t>(pos)] = pos - 1;
  }
  for (Count q = 1; pos <= n_pad; ++q) {
    const Count parent = offset[static_cast<std::size_t>(q)];
    Count r = util::mod_floor(-parent - 1, d);
    for (Count c = 0; c < d && pos <= n_pad; ++c, ++pos) {
      offset[static_cast<std::size_t>(pos)] = parent + 1 + r;
      if (++r == d) r = 0;
    }
  }
  return offset;
}

/// Closed-form playback delay a(x) of receiver x (pre-recorded mode):
/// max over trees k of A(pos_k(x)) - k, clamped at 0.
constexpr Count structured_delay(const Lattice& lat, Count x) {
  Count a = 0;
  for (Count k = 0; k < lat.d; ++k) {
    const Count c = arrival_offset(lat.position_of(k, x), lat.d) - k;
    if (c > a) a = c;
  }
  return a;
}

/// Worst-case playback delay over all receivers — the left-hand side of
/// Theorem 2, computed from the schedule itself rather than claimed.
constexpr Count structured_worst_delay(Count n, Count d) {
  const Lattice lat(n, d);
  Count worst = 0;
  for (Count x = 1; x <= n; ++x) {
    const Count a = structured_delay(lat, x);
    if (a > worst) worst = a;
  }
  return worst;
}

/// Closed-form delay of the pipelined live mode (the analysis the paper
/// skips): the source's send of tree-k packet k + m*d to child r slips by d
/// exactly when r < k, and the slip propagates unchanged down the subtree,
/// so  a_pipe(x) = max_k ( A(pos_k(x)) - k + (r1_k(x) < k ? d : 0) )  with
/// r1_k(x) the child index of x's level-1 ancestor in tree k.
constexpr Count structured_delay_pipelined(const Lattice& lat, Count x) {
  Count a = 0;
  for (Count k = 0; k < lat.d; ++k) {
    Count pos = lat.position_of(k, x);
    Count level1 = pos;
    while (level1 > lat.d) level1 = (level1 - 1) / lat.d;
    const Count r1 = (level1 - 1) % lat.d;
    const Count c =
        arrival_offset(pos, lat.d) - k + (r1 < k ? lat.d : 0);
    if (c > a) a = c;
  }
  return a;
}

constexpr Count structured_worst_delay_pipelined(Count n, Count d) {
  const Lattice lat(n, d);
  Count worst = 0;
  for (Count x = 1; x <= n; ++x) {
    const Count a = structured_delay_pipelined(lat, x);
    if (a > worst) worst = a;
  }
  return worst;
}

/// Max buffer occupancy of receiver x at playback start (receive capacity 1
/// puts the maximum exactly there): the number of window packets arrived by
/// slot a(x), counted residue by residue — the closed form of
/// src/scale/replay.cpp, proved there against metrics::max_buffer_occupancy
/// on the full small-N grid.
constexpr Count structured_occupancy(const Lattice& lat, Count x,
                                     Count window) {
  const Count a = structured_delay(lat, x);
  Count occ = 0;
  for (Count k = 0; k < lat.d && k < window; ++k) {
    const Count c = arrival_offset(lat.position_of(k, x), lat.d) - k;
    const Count num = a - c - k;
    if (num < 0) continue;
    const Count cap = (window - 1 - k) / lat.d;
    const Count hi = num / lat.d < cap ? num / lat.d : cap;
    occ += hi + 1;
  }
  return occ;
}

/// Worst-case occupancy over all receivers — the buffer half of Theorem 2.
constexpr Count structured_max_buffer(Count n, Count d, Count window) {
  const Lattice lat(n, d);
  Count worst = 0;
  for (Count x = 1; x <= n; ++x) {
    const Count occ = structured_occupancy(lat, x, window);
    if (occ > worst) worst = occ;
  }
  return worst;
}

}  // namespace streamcast::envelope
