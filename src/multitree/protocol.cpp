#include "src/multitree/protocol.hpp"

#include <cassert>
#include <limits>
#include <utility>

namespace streamcast::multitree {

namespace {

constexpr std::int64_t kUnbounded = std::numeric_limits<std::int64_t>::max();

}  // namespace

MultiTreeProtocol::MultiTreeProtocol(const Forest& forest, StreamMode mode,
                                     SourceGate gate, sim::NodeKey key_offset)
    : forest_(forest), mode_(mode), gate_(std::move(gate)),
      key_offset_(key_offset) {
  const int d = forest_.d();
  use_periodic_cache(true);
  src_next_.assign(static_cast<std::size_t>(d),
                   std::vector<std::int64_t>(static_cast<std::size_t>(d), 0));
  interior_index_.assign(static_cast<std::size_t>(forest_.n()) + 1, -1);
  for (int k = 0; k < d; ++k) {
    for (NodeKey pos = 1; pos <= forest_.interior(); ++pos) {
      const NodeKey node = forest_.node_at(k, pos);
      assert(!forest_.is_dummy(node));
      interior_index_[static_cast<std::size_t>(node)] =
          static_cast<int>(interiors_.size());
      interiors_.push_back(InteriorState{
          .node = node,
          .pos = pos,
          .tree = k,
          .last_recv_m = -1,
          .child_next =
              std::vector<std::int64_t>(static_cast<std::size_t>(d), 0)});
    }
  }
}

void MultiTreeProtocol::use_periodic_cache(bool enabled) {
  if (!enabled) {
    cache_.reset();
    return;
  }
  // The memoized schedule assumes every scheduled packet is sendable the
  // slot the round-robin reaches it: true for pre-recorded data and for the
  // d-slot-shifted prebuffered live mode, false for the pipelined live mode
  // (packet p does not exist before slot p) and for gated sources (backbone
  // availability is data-dependent).
  if (mode_ != StreamMode::kLivePipelined && !gate_ && !cache_) {
    cache_ = build_periodic_schedule(forest_);
  }
}

void MultiTreeProtocol::transmit(Slot t, std::vector<Tx>& out) {
  const int d = forest_.d();
  // Pre-buffered live streaming: the identical schedule starts d slots late
  // (the residue t mod d is unchanged by the shift, so nothing else moves).
  if (mode_ == StreamMode::kLivePrebuffered && t < d) return;
  if (cache_) {
    const Slot shifted = mode_ == StreamMode::kLivePrebuffered ? t - d : t;
    const Slot period = shifted / d;
    for (const PeriodicSchedule::Entry& e :
         cache_->residues[static_cast<std::size_t>(shifted % d)]) {
      if (period < e.alpha) continue;
      out.push_back(Tx{.from = global_key(e.from),
                       .to = global_key(e.to),
                       .packet = static_cast<PacketId>(e.tree) +
                                 (period - e.alpha) * d,
                       .tag = static_cast<std::int32_t>(e.tree)});
    }
    return;
  }
  const int r = static_cast<int>(t % d);

  // Emits the next pending packet of tree k from `from` (at position
  // `from_pos`) to its r-th child, if it exists and is sendable.
  // `last_m` is the newest tree-k packet index held (kUnbounded for the
  // pre-recorded source). Dummy children are skipped but still consume the
  // round-robin turn, exactly as if the dummy were present.
  auto pump = [&](NodeKey from_local, NodeKey from_pos, int k,
                  std::int64_t last_m, std::vector<std::int64_t>& cursors) {
    auto& m = cursors[static_cast<std::size_t>(r)];
    if (m > last_m) return;  // nothing new for this child yet
    const PacketId p = static_cast<PacketId>(k) + m * d;
    if (mode_ == StreamMode::kLivePipelined && p > t) return;  // not generated
    if (from_local == 0 && gate_ && !gate_(p, t)) return;  // upstream lag
    const NodeKey child = forest_.node_at(k, forest_.child_pos(from_pos, r));
    if (!forest_.is_dummy(child)) {
      out.push_back(Tx{.from = global_key(from_local),
                       .to = global_key(child),
                       .packet = p,
                       .tag = static_cast<std::int32_t>(k)});
    }
    ++m;
  };

  // Source: one packet per tree per slot (capacity d).
  for (int k = 0; k < d; ++k) {
    pump(/*from_local=*/0, /*from_pos=*/0, k, kUnbounded,
         src_next_[static_cast<std::size_t>(k)]);
  }
  // Every interior receiver forwards within its one interior tree.
  for (auto& st : interiors_) {
    pump(st.node, st.pos, st.tree, st.last_recv_m, st.child_next);
  }
}

void MultiTreeProtocol::deliver(Slot t, const Tx& tx) {
  (void)t;
  // The memoized schedule derives every send from slot arithmetic alone;
  // there is no cursor state to advance.
  if (cache_) return;
  const NodeKey local = local_key(tx.to);
  if (local < 1) return;
  const int idx = interior_index_[static_cast<std::size_t>(local)];
  if (idx < 0) return;  // all-leaf node: nothing to forward
  auto& st = interiors_[static_cast<std::size_t>(idx)];
  if (tx.tag != st.tree) return;  // leaf role in another tree
  const std::int64_t m = (tx.packet - st.tree) / forest_.d();
  // Round-robin delivery is strictly in order within a tree; a violation
  // here would mean the congruence property failed.
  assert(m == st.last_recv_m + 1);
  st.last_recv_m = m;
}

}  // namespace streamcast::multitree
