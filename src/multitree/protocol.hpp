// Stateful multi-tree streaming protocol (§2.2.3) for the slot engine.
// streamcast: hot-path (lint: hot-path-alloc applies to this file)
//
// Node keys: 0 = source S, 1..n = the real receivers (dummies are "removed
// in the real system", §2.2, so they are never addressed).
//
// Three stream modes:
//  * kPreRecorded     — every packet available at S from slot 0 (§2.2.3).
//  * kLivePrebuffered — packet p is generated in slot p; S pre-buffers d
//    packets and starts the identical schedule d slots late, so every node's
//    delay grows by exactly d (§2.2.3, second live approach).
//  * kLivePipelined   — packet p is generated in slot p; S runs the
//    round-robin slots but holds a transmission back until its packet
//    exists (§2.2.3, first live approach — the paper notes the resulting
//    per-tree schedules are inhomogeneous and hard to analyze; we simulate
//    them instead).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "src/multitree/forest.hpp"
#include "src/multitree/schedule.hpp"
#include "src/sim/protocol.hpp"

namespace streamcast::multitree {

using sim::PacketId;
using sim::Slot;
using sim::Tx;

enum class StreamMode { kPreRecorded, kLivePrebuffered, kLivePipelined };

/// Optional availability gate for the cluster source: sendable(p, t) must
/// return true once packet p may leave the source in slot t. Used by the
/// super-tree composition, where S'_i can only relay packets already
/// delivered over the backbone. Must be monotone in t.
using SourceGate = std::function<bool(PacketId, Slot)>;

class MultiTreeProtocol final : public sim::Protocol {
 public:
  /// `key_offset` places the cluster in the engine key space: local key x
  /// (0 = cluster source, 1..n receivers) is engine key key_offset + x.
  explicit MultiTreeProtocol(const Forest& forest,
                             StreamMode mode = StreamMode::kPreRecorded,
                             SourceGate gate = {},
                             sim::NodeKey key_offset = 0);

  // lint: allow(hot-path-alloc) — appends to the engine's slot list
  void transmit(Slot t, std::vector<Tx>& out) override;
  void deliver(Slot t, const Tx& tx) override;

  /// Translates a local key (0 = cluster source, 1..n receivers) to the
  /// engine key space.
  sim::NodeKey global_key(NodeKey local) const { return key_offset_ + local; }
  /// Inverse of global_key; -1 for a key outside the cluster.
  NodeKey local_key(sim::NodeKey global) const {
    const NodeKey local = global - key_offset_;
    return local >= 0 && local <= forest_.n() ? local : -1;
  }

  /// Enables/disables the memoized periodic-schedule fast path. Eligible
  /// modes (kPreRecorded and kLivePrebuffered without a source gate) enable
  /// it automatically at construction; callers that deliver packets out of
  /// schedule — lossy runs, where a forward must wait for actual receipt —
  /// must switch it off before the run starts. Ineligible configurations
  /// ignore enable requests.
  void use_periodic_cache(bool enabled);
  bool periodic_cache_active() const { return cache_.has_value(); }

 private:
  const Forest& forest_;
  StreamMode mode_;
  SourceGate gate_;
  sim::NodeKey key_offset_;  // engine key of local key 0
  struct InteriorState {
    NodeKey node = 0;
    NodeKey pos = 0;  // its interior position
    int tree = 0;
    std::int64_t last_recv_m = -1;  // newest tree packet received
  };
  // lint: allow(hot-path-alloc) — sized once in the constructor
  std::vector<InteriorState> interiors_;
  // lint: allow(hot-path-alloc) — node -> index or -1, sized once
  std::vector<int> interior_index_;
  /// Flat [interior][child] and [tree][child] next-m cursors, d per sender.
  // lint: allow(hot-path-alloc) — sized once in the constructor
  std::vector<std::int64_t> child_next_;
  // lint: allow(hot-path-alloc) — sized once in the constructor
  std::vector<std::int64_t> src_next_;
  /// Memoized periodic schedule; when set, transmit() replays it and
  /// deliver() keeps no cursor state (tests prove byte-identical output).
  std::optional<PeriodicSchedule> cache_;
};

}  // namespace streamcast::multitree
