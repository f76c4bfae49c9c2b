#include "src/multitree/dynamic.hpp"

#include <algorithm>
#include <cassert>

#include "src/multitree/analysis.hpp"

namespace streamcast::multitree {

DynamicMultiTreeProtocol::DynamicMultiTreeProtocol(ChurnForest& churn)
    : churn_(churn) {
  const int d = churn_.d();
  src_next_.assign(static_cast<std::size_t>(d),
                   std::vector<std::int64_t>(static_cast<std::size_t>(d), 0));
  resync(0);
}

std::int64_t DynamicMultiTreeProtocol::highest_received(NodeKey id,
                                                        int tree) const {
  if (id < 1 || static_cast<std::size_t>(id) >= highest_.size()) return -1;
  return highest_[static_cast<std::size_t>(id)][static_cast<std::size_t>(
      tree)];
}

sim::PacketId DynamicMultiTreeProtocol::live_edge() const {
  std::int64_t m = 0;
  for (const auto& per_tree : src_next_) {
    for (const std::int64_t next : per_tree) m = std::max(m, next);
  }
  return (m + 1) * churn_.d();
}

void DynamicMultiTreeProtocol::resync(Slot now) {
  (void)now;
  const Forest& forest = churn_.forest();
  // Structural ids that vanished in a shrink were vacant; new ids start with
  // empty reception history.
  highest_.resize(static_cast<std::size_t>(forest.n_pad()) + 1,
                  std::vector<std::int64_t>(
                      static_cast<std::size_t>(churn_.d()), -1));
  rebuild_interiors(now);
}

void DynamicMultiTreeProtocol::rebuild_interiors(Slot now) {
  (void)now;
  const Forest& forest = churn_.forest();
  const int d = churn_.d();
  interiors_.clear();
  for (int k = 0; k < d; ++k) {
    for (NodeKey pos = 1; pos <= forest.interior(); ++pos) {
      const NodeKey id = forest.node_at(k, pos);
      Interior st{.id = id,
                  .pos = pos,
                  .tree = k,
                  .next = std::vector<std::int64_t>(
                      static_cast<std::size_t>(d), 0)};
      const std::int64_t own =
          highest_[static_cast<std::size_t>(id)][static_cast<std::size_t>(k)];
      for (int r = 0; r < d; ++r) {
        const NodeKey child = forest.node_at(k, forest.child_pos(pos, r));
        const std::int64_t have =
            highest_[static_cast<std::size_t>(child)]
                    [static_cast<std::size_t>(k)];
        // Continuity when the child is within normal pipeline depth; a
        // live-edge jump otherwise (rate-matched links leave no bandwidth
        // to backfill, so a lagging child must skip ahead — the skipped
        // rounds are its hiccups).
        const bool continuous = own - have <= kPipelineDepth;
        st.next[static_cast<std::size_t>(r)] =
            std::max(continuous ? have + 1 : own, std::int64_t{0});
      }
      interiors_.push_back(std::move(st));
    }
  }
}

void DynamicMultiTreeProtocol::transmit(Slot t, std::vector<Tx>& out) {
  const Forest& forest = churn_.forest();
  const int d = churn_.d();
  const auto r = static_cast<std::size_t>(t % d);

  // Source: one packet per tree per slot, to the position-(r+1) occupant.
  // Vacant positions' streams keep ticking so joiners enter at the edge.
  for (int k = 0; k < d; ++k) {
    auto& m = src_next_[static_cast<std::size_t>(k)][r];
    const NodeKey child = forest.node_at(k, static_cast<NodeKey>(r) + 1);
    if (!churn_.is_vacant(child)) {
      out.push_back(Tx{.from = 0,
                       .to = child,
                       .packet = static_cast<sim::PacketId>(k) + m * d,
                       .tag = static_cast<std::int32_t>(k)});
    }
    ++m;
  }

  for (auto& st : interiors_) {
    auto& m = st.next[r];
    const std::int64_t own =
        highest_[static_cast<std::size_t>(st.id)]
                [static_cast<std::size_t>(st.tree)];
    if (own < 0) continue;  // nothing received yet (fresh interior id)
    const NodeKey child =
        forest.node_at(st.tree, forest.child_pos(st.pos, static_cast<int>(r)));
    if (own - m > kPipelineDepth) {
      // Stale cursor (a rebuild reset this id's state while the stream ran
      // on): live-edge jump at send time, never below what the child
      // already holds. The skipped rounds are the child's hiccups.
      const std::int64_t have =
          highest_[static_cast<std::size_t>(child)]
                  [static_cast<std::size_t>(st.tree)];
      m = std::max(own, have + 1);
    }
    if (m > own) continue;  // nothing sendable for this child yet
    if (!churn_.is_vacant(child)) {
      out.push_back(Tx{.from = st.id,
                       .to = child,
                       .packet = static_cast<sim::PacketId>(st.tree) + m * d,
                       .tag = static_cast<std::int32_t>(st.tree)});
    }
    ++m;
  }
}

void DynamicMultiTreeProtocol::deliver(Slot t, const Tx& tx) {
  (void)t;
  const std::int64_t m = (tx.packet - tx.tag) / churn_.d();
  auto& cell = highest_[static_cast<std::size_t>(tx.to)]
                       [static_cast<std::size_t>(tx.tag)];
  cell = std::max(cell, m);
}

}  // namespace streamcast::multitree
