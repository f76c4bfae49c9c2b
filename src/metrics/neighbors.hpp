// streamcast: hot-path (lint: hot-path-alloc applies to this file)
//
// Neighbor accounting: the paper's "communication requirement" metric is the
// number of distinct nodes a node exchanges packets with (multi-tree: <= 2d;
// hypercube: O(log N); Table 1).
//
// Layout (DESIGN.md §11): a flat kRowWidth-wide partner row per node plus a
// one-byte fill count. A node that gains more partners than its row holds
// spills into a flat pool of kRowWidth-wide blocks: the row keeps its first
// kRowWidth - 1 partners and its last slot becomes the index of the node's
// first block, and each block links to the next. Counts are exact at any
// degree, and a recorder that never spills holds exactly the row matrix.
//
// Every delivery records each endpoint in the other's row, so the rows are
// symmetric: once the sender is found in the receiver's row, the search of
// the sender's row is skipped. A pump repeats its links every round, so
// that is almost every delivery. Prefetching rows did not pay (DESIGN.md
// §8).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/sim/engine.hpp"
#include "src/util/budget.hpp"

namespace streamcast::metrics {

using sim::Delivery;
using sim::NodeKey;

class NeighborRecorder final : public sim::DeliveryObserver {
 public:
  /// Partners held in a node's row before it spills. Multi-tree receivers
  /// need at most 2d; the hypercube's O(log N) passes 24 from N = 2 500.
  static constexpr int kRowWidth = 24;

  /// Tracks nodes [0, nodes). A non-null `ledger` is charged for the rows
  /// before they are allocated, and for each overflow block as it is added.
  explicit NeighborRecorder(NodeKey nodes,
                            util::BudgetLedger* ledger = nullptr);

  void on_deliveries(std::span<const Delivery> arrivals) override;

  /// Distinct nodes this node sent to or received from.
  std::size_t count(NodeKey node) const;

  /// Max / mean neighbor count over nodes [from, to] inclusive.
  std::size_t max_count(NodeKey from, NodeKey to) const;
  double mean_count(NodeKey from, NodeKey to) const;

 private:
  /// used_ value of a node whose row has spilled into the pool.
  static constexpr std::uint8_t kSpilled = 0xFF;

  /// Records one partnership; true when partner was already recorded for
  /// node. Records nothing for a node outside the recorder or a negative
  /// partner (kNoNode marks empty pool slots); partners above it count.
  bool insert(NodeKey node, NodeKey partner);
  bool spill(NodeKey* row, std::uint8_t& used, NodeKey partner);
  /// Appends an empty block to the pool and returns its offset.
  NodeKey new_block();

  /// Flat [node][kRowWidth] partner ids.
  // lint: allow(hot-path-alloc) — sized once in the constructor
  std::vector<NodeKey> partners_;
  /// Partners in each row, or kSpilled.
  // lint: allow(hot-path-alloc) — sized once in the constructor
  std::vector<std::uint8_t> used_;
  /// Overflow blocks of kRowWidth ids: [next block or kNoNode, partners...],
  /// with kNoNode marking empty partner slots.
  // lint: allow(hot-path-alloc) — grows one block per spill, never shrinks
  std::vector<NodeKey> pool_;
  util::BudgetLedger* ledger_;
};

}  // namespace streamcast::metrics
