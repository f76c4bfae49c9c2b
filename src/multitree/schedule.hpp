// Closed-form round-robin schedule arithmetic (§2.2.3).
//
// Transmission rule: with t = m*d + r, the source sends packet (k + m*d) to
// its r-th child in tree T_k in slot t; every interior node of T_k forwards
// to its r-th child in slot t the packet it is currently disseminating. The
// schedule is perfectly periodic, so the arrival slot of tree-k packet
// (k + m*d) at position p is  m*d + A_k(p)  for a per-position offset A_k(p)
// computed by one top-down pass:
//     A_k(child at index c of q) = A_k(q) + 1 + ((c - A_k(q) - 1) mod d)
// with A_k(position p in level 1) = (p-1) mod d.
//
// From the offsets, the playback delay of node x (DESIGN.md §3) is closed
// form:  a(x) = max_k ( A_k(pos_k(x)) - k ),   since recv(j) - j =
// A_k(p) - k for every tree-k packet j. The simulation-based protocol in
// protocol.hpp must agree with these values exactly; tests cross-check.
#pragma once

#include <vector>

#include "src/multitree/forest.hpp"
#include "src/sim/packet.hpp"

namespace streamcast::multitree {

using sim::Slot;

/// Closed-form playback delay a(x) for every real receiver x in [1, n];
/// index 0 unused (0). Pre-recorded mode; the live-prebuffered mode adds
/// exactly d to every entry.
std::vector<Slot> closed_form_delays(const Forest& forest);

/// Closed form for the pipelined live mode — the analysis the paper skips
/// ("the transmission schedules of the different trees are not homogeneous;
/// thus, this scheme is not easy to analyze"). With packet p generated in
/// slot p, the source's send of tree-k packet k+m*d to its child r slips
/// from slot m*d+r to (m+1)*d+r exactly when r < k; the slip preserves the
/// slot residue, so it propagates unchanged through the whole subtree under
/// that child. Hence
///     a_pipe(x) = max_k ( A(pos_k(x)) - k + (r1_k(x) < k ? d : 0) )
/// where r1_k(x) is the child index of x's level-1 ancestor in tree k.
/// Verified against engine simulation in the test suite.
std::vector<Slot> closed_form_delays_pipelined(const Forest& forest);

/// Memoized periodic transmission schedule (DESIGN.md §8).
///
/// The round-robin dissemination is perfectly periodic with period d: writing
/// t = M*d + r, the sender at position q of tree k transmits to its child at
/// index r exactly in the slots where M >= alpha, with
///     alpha = (A_k(child_pos(q, r)) - r) / d
/// (A_k(child) ≡ r (mod d) by the offset recurrence, so the division is
/// exact), and the packet sent is k + (M - alpha)*d. This closed form equals
/// the cursor-driven pump in MultiTreeProtocol for every slot including
/// warm-up: the first slot >= A_k(q)+1 with residue r is precisely
/// A_k(child), and arrivals keep pace with sends one-for-one thereafter.
/// Replaying the precomputed per-residue window replaces per-slot cursor
/// bookkeeping and per-delivery protocol state updates in the reliable hot
/// path.
struct PeriodicSchedule {
  struct Entry {
    NodeKey from = 0;  // local key (0 = the source)
    NodeKey to = 0;    // local key of the receiving child
    int tree = 0;
    Slot alpha = 0;  // first period M in which this entry fires
  };
  int d = 1;
  /// Entries for each slot residue r = t % d, in the exact order the
  /// cursor-driven pump emits them (source trees 0..d-1, then interior
  /// nodes tree-major by position). Dummy children are omitted.
  std::vector<std::vector<Entry>> residues;
};

PeriodicSchedule build_periodic_schedule(const Forest& forest);

/// max over receivers of closed_form_delays.
Slot closed_form_worst_delay(const Forest& forest);

/// mean over receivers of closed_form_delays.
double closed_form_average_delay(const Forest& forest);

}  // namespace streamcast::multitree
