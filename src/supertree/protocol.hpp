// End-to-end cross-cluster streaming (§2.1 + §2.2/§3 composed).
//
// The global source S streams one packet per slot to each of its D backbone
// children (clusters at depth 1). Every super node S_i relays each packet,
// in order and one per slot, to its backbone children (latency T_c) and to
// its local root S'_i (latency T_i). Each S'_i drives its cluster's
// intra-cluster scheme:
//  * kMultiTree  — the interior-disjoint forest, gated on what the backbone
//    has actually delivered (§2).
//  * kHypercube  — the §3 chain, "easily adapted to streaming over multiple
//    clusters, using the tree τ": the chain's local clock starts at the
//    cluster's static backbone offset depth*T_c + T_i, from which point
//    every injection's packet has provably arrived at S'_i.
//
// Sharded execution (DESIGN.md §14): a protocol instance can own just a
// contiguous half-open range of clusters. It then emits transmissions only
// for nodes inside its range (the global source belongs to the instance
// owning cluster 0) and accepts deliveries only for them; the sharded
// runner routes everything else across the epoch barrier. The default range
// is all clusters — the serial pump unchanged.
#pragma once

#include <memory>
#include <vector>

#include "src/hypercube/protocol.hpp"
#include "src/multitree/greedy.hpp"
#include "src/multitree/protocol.hpp"
#include "src/net/topology.hpp"
#include "src/sim/protocol.hpp"
#include "src/supertree/backbone.hpp"

namespace streamcast::supertree {

using sim::PacketId;
using sim::Tx;

enum class IntraScheme { kMultiTree, kHypercube };

/// Half-open cluster range a protocol instance owns. `end == -1` means
/// "through the last cluster" — the whole topology by default.
struct ClusterRange {
  int begin = 0;
  int end = -1;
};

class SuperTreeProtocol final : public sim::Protocol {
 public:
  /// The topology fixes K, D, d, T_c and the per-cluster sizes; multi-tree
  /// forests are built with the greedy construction, hypercube clusters
  /// with the single-chain decomposition. Every cluster streams
  /// pre-recorded data (§2.1).
  explicit SuperTreeProtocol(const net::ClusteredTopology& topology,
                             IntraScheme scheme = IntraScheme::kMultiTree,
                             ClusterRange range = {});

  void transmit(Slot t, std::vector<Tx>& out) override;
  void deliver(Slot t, const Tx& tx) override;

  const Backbone& backbone() const { return backbone_; }

 private:
  struct ClusterState {
    /// The greedy forest the intra protocol streams over (kMultiTree
    /// clusters only).
    std::unique_ptr<multitree::Forest> forest;
    std::unique_ptr<sim::Protocol> intra;
    PacketId super_received = -1;   // newest packet at S_i (in order)
    PacketId super_forwarded = -1;  // newest packet S_i pushed downstream
    PacketId root_received = -1;    // newest packet at S'_i
  };

  const net::ClusteredTopology& topology_;
  Backbone backbone_;
  int lo_ = 0;  // first owned cluster
  int hi_ = 0;  // one past the last owned cluster
  std::vector<ClusterState> clusters_;  // owned range only, index c - lo_
};

}  // namespace streamcast::supertree
