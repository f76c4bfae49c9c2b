#include "src/supertree/protocol.hpp"

#include <cassert>
#include <memory>
#include <stdexcept>

namespace streamcast::supertree {

SuperTreeProtocol::SuperTreeProtocol(const net::ClusteredTopology& topology,
                                     IntraScheme scheme,
                                     ClusterRange range)
    : topology_(topology),
      backbone_(build_backbone(topology.clusters(), topology.big_d())),
      lo_(range.begin),
      hi_(range.end < 0 ? topology.clusters() : range.end) {
  if (lo_ < 0 || hi_ > topology.clusters() || lo_ >= hi_) {
    throw std::invalid_argument("cluster range out of bounds");
  }
  clusters_.reserve(static_cast<std::size_t>(hi_ - lo_));
  for (int c = lo_; c < hi_; ++c) {
    const NodeKey n = topology.cluster_receivers(c);
    if (n < 1) {
      throw std::invalid_argument("every cluster needs >= 1 receiver");
    }
    ClusterState& slot = clusters_.emplace_back();
    const std::size_t index = clusters_.size() - 1;
    // Each cluster's keys are contiguous from its local root S'_i (local
    // key 0) through its receivers, so the intra protocol's state is sized
    // by the cluster, not by the largest global key.
    if (scheme == IntraScheme::kMultiTree) {
      slot.forest = std::make_unique<multitree::Forest>(
          multitree::build_greedy(n, topology.small_d()));
      slot.intra = std::make_unique<multitree::MultiTreeProtocol>(
          *slot.forest, multitree::StreamMode::kPreRecorded,
          // S'_i may relay packet p in slot t once the backbone delivered
          // it in some earlier slot. `this` and clusters_ outlive intra.
          [this, index](PacketId p, Slot) {
            return clusters_[index].root_received >= p;
          },
          topology.local_root(c));
    } else {
      // Hypercube chain over global keys, with the whole chain's clock
      // shifted by this cluster's static backbone offset: packet tau lands
      // at S'_i in slot tau + depth*T_c + T_i - 1, strictly before the
      // chain's slot-(offset + tau) injection.
      const Slot offset =
          backbone_.depth[static_cast<std::size_t>(c)] * topology.t_c() +
          topology.t_i();
      slot.intra = std::make_unique<hypercube::HypercubeProtocol>(
          std::vector<std::vector<hypercube::Segment>>{
              hypercube::decompose_chain(n, topology.receiver(c, 1),
                                         offset)},
          /*source_key=*/topology.local_root(c));
    }
  }
}

void SuperTreeProtocol::transmit(Slot t, std::vector<Tx>& out) {
  // Global source: packet t to every depth-1 super node (D sends). The
  // source node lives with cluster 0's owner; other shards route these
  // transmissions in at the epoch barrier.
  if (lo_ == 0) {
    for (int c = 0; c < backbone_.clusters(); ++c) {
      if (backbone_.parent[static_cast<std::size_t>(c)] == -1) {
        out.push_back(Tx{.from = topology_.source(),
                         .to = topology_.super_node(c),
                         .packet = t,
                         .tag = -1});
      }
    }
  }
  // Super nodes: relay the next pending packet (one per slot) to backbone
  // children (T_c) and the local root (T_i) — at most D sends.
  for (int c = lo_; c < hi_; ++c) {
    auto& st = clusters_[static_cast<std::size_t>(c - lo_)];
    if (st.super_forwarded >= st.super_received) continue;
    const PacketId p = ++st.super_forwarded;
    for (const int child : backbone_.kids[static_cast<std::size_t>(c)]) {
      out.push_back(Tx{.from = topology_.super_node(c),
                       .to = topology_.super_node(child),
                       .packet = p,
                       .tag = -1});
    }
    out.push_back(Tx{.from = topology_.super_node(c),
                     .to = topology_.local_root(c),
                     .packet = p,
                     .tag = -1});
  }
  // Intra-cluster schemes.
  for (auto& st : clusters_) st.intra->transmit(t, out);
}

void SuperTreeProtocol::deliver(Slot t, const Tx& tx) {
  const int c = topology_.cluster_of(tx.to);
  assert(c >= lo_ && c < hi_ && "delivery routed to the wrong shard");
  auto& st = clusters_[static_cast<std::size_t>(c - lo_)];
  if (tx.to == topology_.super_node(c)) {
    assert(tx.packet == st.super_received + 1 && "backbone must be in order");
    st.super_received = tx.packet;
    return;
  }
  if (tx.to == topology_.local_root(c)) {
    assert(tx.packet == st.root_received + 1);
    st.root_received = tx.packet;
    return;
  }
  st.intra->deliver(t, tx);
}

}  // namespace streamcast::supertree
