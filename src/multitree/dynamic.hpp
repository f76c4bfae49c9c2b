// Mid-stream churn: the multi-tree protocol kept running while the forest
// mutates underneath it — the paper's omitted QoS-under-churn simulation
// ("nodes participating in the swapping process may suffer from hiccups ...
// because they lose data which was delivered before they were moved up a
// tree, or perhaps because they wait longer than originally planned for some
// data because they were moved down a tree", appendix).
//
// Model. Structural ids keep receiving their positions' round-robin streams;
// ChurnForest moves *peers* between ids and occasionally re-derives the
// placement. After every mutation the driver calls resync(now), which
// re-reads the forest and repairs each interior id's per-child cursors:
//
//   next(child r) = highest(child) + 1   if the child trails by at most
//                                        kPipelineDepth rounds (continuity:
//                                        nothing missed, nothing repeated)
//                 = highest(self)        otherwise (jump to the live edge:
//                                        the gap becomes hiccups/missed
//                                        packets, playback then resumes on
//                                        schedule)
//
// The jump is forced by the rate-matched links of the paper's model: every
// node sends exactly one packet per slot, so there is no spare bandwidth to
// backfill a lagging child — catching up is impossible and a permanently
// lagging subtree would hiccup forever. Skipping to the live edge costs a
// bounded burst of hiccups per affected node, which is exactly the paper's
// "up to d^2 nodes may suffer from hiccups" accounting. Vacant ids receive
// nothing but their positions' cursors keep ticking, so a joiner enters at
// the live stream edge.
//
// Per-peer QoS is measured by metrics::PeerPlaybackTracker keyed through
// ChurnForest::peer_at, seating each peer at live_edge(): one
// PlaybackBuffer per peer, started startup_margin slots after it is seated;
// every missed due packet is one hiccup.
#pragma once

#include <cstdint>
#include <vector>

#include "src/multitree/churn.hpp"
#include "src/sim/protocol.hpp"

namespace streamcast::multitree {

using sim::PacketId;
using sim::Slot;
using sim::Tx;

class DynamicMultiTreeProtocol final : public sim::Protocol {
 public:
  /// Largest child lag (in per-tree rounds) repaired by continuity rather
  /// than a live-edge jump. The steady-state lag is 0 or 1 round; 2
  /// tolerates one transition slot on top.
  static constexpr std::int64_t kPipelineDepth = 2;

  explicit DynamicMultiTreeProtocol(ChurnForest& churn);

  void transmit(Slot t, std::vector<Tx>& out) override;
  void deliver(Slot t, const Tx& tx) override;

  /// Re-reads the (possibly restructured) forest and repairs all cursors.
  /// Call after every ChurnForest mutation, before simulating further slots.
  void resync(Slot now);

  /// Newest tree-`tree` packet index m received by structural id (-1 none).
  std::int64_t highest_received(NodeKey id, int tree) const;

  /// First packet id of the next completely-fresh source round: a viewer
  /// seated now is guaranteed every packet >= live_edge() (used to place
  /// joiners' playback at the live stream edge).
  PacketId live_edge() const;

 private:
  struct Interior {
    NodeKey id = 0;
    NodeKey pos = 0;
    int tree = 0;
    std::vector<std::int64_t> next;  // per child slot: next m to offer
  };

  void rebuild_interiors(Slot now);

  ChurnForest& churn_;
  std::vector<std::vector<std::int64_t>> highest_;  // [id][tree] -> max m
  std::vector<Interior> interiors_;
  std::vector<std::vector<std::int64_t>> src_next_;  // [tree][child slot]
};

}  // namespace streamcast::multitree
