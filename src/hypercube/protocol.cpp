// streamcast: hot-path (lint: hot-path-alloc applies to this file)
#include "src/hypercube/protocol.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "src/util/ints.hpp"

namespace streamcast::hypercube {

constexpr int kWordBits = 64;

// A held offset never exceeds its segment's dimension k, and a k-cube's
// 2^k - 1 receivers fit a NodeKey, so offsets 0..k always fit the word.
static_assert(util::floor_log2(static_cast<std::uint64_t>(
                  std::numeric_limits<NodeKey>::max()) + 1) < kWordBits);

HypercubeProtocol::HypercubeProtocol(
    // lint: allow(hot-path-alloc) — the chains, taken once at construction
    std::vector<std::vector<Segment>> chains, NodeKey source_key)
    : source_key_(source_key) {
  if (chains.empty()) throw std::invalid_argument("need at least one chain");
  NodeKey max_key = source_key_;
  base_ = source_key_;
  for (const auto& chain : chains) {
    if (chain.empty()) throw std::invalid_argument("empty chain");
    std::vector<SegState> states;  // lint: allow(hot-path-alloc) — setup
    states.reserve(chain.size());
    for (const Segment& seg : chain) {
      if (seg.k < 1) throw std::invalid_argument("segment dimension < 1");
      states.push_back(SegState{.seg = seg, .next_consume = 0});
      base_ = std::min(base_, seg.first);
      max_key = std::max(max_key, seg.first + seg.receivers() - 1);
      receivers_ += seg.receivers();
    }
    chains_.push_back(std::move(states));
  }
  held_.resize(at(max_key) + 1);
  failed_.resize(held_.size(), false);
  seg_of_.resize(held_.size(), {-1, -1});
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    for (std::size_t s = 0; s < chains_[c].size(); ++s) {
      const Segment& seg = chains_[c][s].seg;
      for (NodeKey key = seg.first; key < seg.first + seg.receivers(); ++key) {
        seg_of_[at(key)] = {static_cast<std::int32_t>(c),
                            static_cast<std::int32_t>(s)};
      }
    }
  }
}

void HypercubeProtocol::fail_node(NodeKey key) { failed_[at(key)] = true; }

std::size_t HypercubeProtocol::buffered(NodeKey key) const {
  return static_cast<std::size_t>(std::popcount(held_[at(key)]));
}

// lint: allow(hot-path-alloc) — appends to the engine's slot list
void HypercubeProtocol::transmit(Slot t, std::vector<Tx>& out) {
  // Phase 1: retire packets whose cube-wide consumption slot has passed;
  // each one moves the anchor of every member's word up by one.
  for (auto& chain : chains_) {
    for (auto& st : chain) {
      while (st.seg.consume_slot(st.next_consume) < t) {
        for (NodeKey key = st.seg.first;
             key < st.seg.first + st.seg.receivers(); ++key) {
          held_[at(key)] >>= 1;
        }
        ++st.next_consume;
      }
    }
  }

  // Phase 2: injections and pairwise exchanges.
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    auto& chain = chains_[c];
    const auto tag = static_cast<std::int32_t>(c);
    for (std::size_t s = 0; s < chain.size(); ++s) {
      const Segment& seg = chain[s].seg;
      const Slot tau = t - seg.start;
      if (tau < 0) break;  // later segments start even later
      const int j = dimension_of(tau, seg.k);
      const Vertex entry = Vertex{1} << j;

      // Injection into this segment: packet tau, into vertex 2^j.
      NodeKey sender = source_key_;
      if (s > 0) {
        const Segment& up = chain[s - 1].seg;
        const Slot up_tau = t - up.start;
        const Vertex feeder = Vertex{1} << dimension_of(up_tau, up.k);
        sender = up.key_of(feeder);
        // The feeder forwards the packet its cube consumed last slot; the
        // chain's start offsets make that exactly tau. On reliable links the
        // feeder always holds it; on lossy links it may not — the emission
        // below is then suppressed and repaired by the recovery layer.
        assert(up_tau - up.k == tau);
      }
      const NodeKey entry_key = seg.key_of(entry);
      if (!failed_[at(sender)] && !failed_[at(entry_key)]) {
        out.push_back(Tx{.from = sender,
                         .to = entry_key,
                         .packet = tau,
                         .tag = tag});
      }

      // In-cube exchanges along dimension j (skip the pair containing
      // vertex 0, handled above as the injection). Both words share the
      // segment's anchor, so the lowest bit `from` holds and `to` lacks is
      // the oldest packet it can offer.
      const PacketId anchor = chain[s].next_consume;
      const auto offer = [&](NodeKey from, NodeKey to) {
        const std::uint64_t only = held_[at(from)] & ~held_[at(to)];
        if (only == 0) return;
        out.push_back(Tx{.from = from,
                         .to = to,
                         .packet = anchor + std::countr_zero(only),
                         .tag = tag});
      };
      const Vertex total = Vertex{1} << seg.k;
      const Vertex bit = Vertex{1} << j;
      for (Vertex v = 1; v < total; ++v) {
        if ((v & bit) != 0) continue;
        const NodeKey a = seg.key_of(v);
        const NodeKey b = seg.key_of(v | bit);
        if (!failed_[at(a)] && !failed_[at(b)]) {
          offer(a, b);
          offer(b, a);
        }
      }
    }
  }
}

void HypercubeProtocol::deliver(Slot /*t*/, const Tx& tx) {
  // A key below base_ wraps to a huge index, so one bound covers both ends.
  const std::size_t node = at(tx.to);
  if (node >= seg_of_.size() || seg_of_[node].first < 0) {
    throw std::logic_error("delivery outside every cube");
  }
  const auto [chain, seg] = seg_of_[node];
  const PacketId offset =
      tx.packet - chains_[static_cast<std::size_t>(chain)]
                         [static_cast<std::size_t>(seg)]
                             .next_consume;
  // A repair arriving after the packet's cube-wide consumption slot (lossy
  // links only) must not re-enter the buffer: the word has no bit below its
  // anchor. On reliable links every delivery precedes consumption.
  if (offset < 0) return;
  // The header's bound keeps offsets <= 31; a shift past the word would be
  // undefined behaviour, so refuse it in every build.
  if (offset >= kWordBits) throw std::logic_error("id beyond the cube word");
  auto& held = held_[node];
  const std::uint64_t mask = std::uint64_t{1} << offset;
  assert((held & mask) == 0 && "hypercube exchange must be duplicate-free");
  held |= mask;
  max_buffered_ =
      std::max(max_buffered_, static_cast<std::size_t>(std::popcount(held)));
}

}  // namespace streamcast::hypercube
