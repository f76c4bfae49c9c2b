// Forward-on-delivery streaming over the dynamic forest.
//
// Substream k = packets congruent to k (mod d) flows down tree k, tagged
// with the tree index. The source releases packet p in slot p, enqueues one
// send per current tree-(p mod d) child, and spends its capacity d
// round-robin across the d per-tree queues starting at tree (t mod d). A
// peer forwards only in its internal tree, and only packets it has
// *actually received*: each delivery enqueues one send per current child,
// drained at the peer's unit upload. That makes the schedule loss- and
// churn-safe by construction — a lost or late packet simply never enters
// the child queue, and a child that moved away is skipped at send time.
//
// Deliberately NOT backfilled: a peer that joins (or a subtree re-parented
// by a leave) starts receiving from its new parent's *next* delivery on.
// The paper's rate-matched links leave no bandwidth to replay history — the
// same reasoning as DynamicMultiTreeProtocol's live-edge jump — so the
// missed interval surfaces as honest hiccups in the churn playback tracker
// instead of a silently rewritten past.
#pragma once

#include <deque>
#include <vector>

#include "src/dyntree/forest.hpp"
#include "src/loss/recovery.hpp"
#include "src/sim/protocol.hpp"

namespace streamcast::dyntree {

using sim::PacketId;
using sim::Tx;

class DynamicTreesProtocol final : public sim::Protocol {
 public:
  explicit DynamicTreesProtocol(DynamicForest forest);

  void transmit(Slot t, std::vector<Tx>& out) override;
  void deliver(Slot t, const Tx& tx) override;

  /// The forest is owned here; churn drivers mutate it through these
  /// wrappers so per-key protocol state stays sized and queues stay sane.
  DynamicForest& forest() { return forest_; }
  const DynamicForest& forest() const { return forest_; }
  NodeKey join();
  void leave(NodeKey key);

  /// A viewer seated in slot t is guaranteed every packet >= live_edge(t):
  /// the source has released [0, t) and forwards everything from t on to
  /// the joiner's parents' queues.
  PacketId live_edge(Slot t) const { return t; }

  /// Packets key has received (churn QoS accounting).
  const loss::SequenceTracker& holdings(NodeKey key) const {
    return holds_[static_cast<std::size_t>(key)];
  }

 private:
  struct Pending {
    NodeKey to = sim::kNoNode;
    PacketId packet = sim::kNoPacket;
  };

  /// True if the queued send is still meaningful: target alive, still this
  /// sender's child in `tree`, and still missing the packet.
  bool still_wanted(int tree, NodeKey from, const Pending& p) const;
  void grow_to(NodeKey key_end);

  DynamicForest forest_;
  std::vector<loss::SequenceTracker> holds_;         // by key
  std::vector<std::deque<Pending>> node_queue_;      // by key (internal tree)
  std::vector<std::deque<Pending>> source_queue_;    // by tree
  std::vector<int> recv_used_;                       // per-slot, by key
  PacketId released_ = 0;
};

}  // namespace streamcast::dyntree
