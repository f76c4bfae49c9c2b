// streamcast: hot-path (lint: hot-path-alloc applies to this file)
#include "src/metrics/neighbors.hpp"

#include <algorithm>
#include <cassert>

namespace streamcast::metrics {

NeighborRecorder::NeighborRecorder(NodeKey nodes, util::BudgetLedger* ledger)
    : ledger_(ledger) {
  assert(nodes >= 1);
  const auto span = static_cast<std::size_t>(nodes);
  const std::size_t cells = span * kRowWidth;
  if (ledger_ != nullptr) {
    ledger_->charge("metrics/neighbor-recorder",
                    cells * sizeof(NodeKey) + span);
  }
  partners_.assign(cells, sim::kNoNode);
  used_.assign(span, 0);
}

void NeighborRecorder::on_deliveries(std::span<const Delivery> arrivals) {
  for (const Delivery& d : arrivals) {
    // Rows are symmetric: a sender already in the receiver's row has the
    // receiver in its own.
    if (!insert(d.tx.to, d.tx.from)) insert(d.tx.from, d.tx.to);
  }
}

bool NeighborRecorder::insert(NodeKey node, NodeKey partner) {
  if (node < 0 || partner < 0 ||
      static_cast<std::size_t>(node) >= used_.size()) {
    return false;
  }
  std::uint8_t& used = used_[static_cast<std::size_t>(node)];
  NodeKey* row = partners_.data() + static_cast<std::size_t>(node) * kRowWidth;
  const int held = used == kSpilled ? kRowWidth - 1 : used;
  for (int i = 0; i < held; ++i) {
    if (row[i] == partner) return true;
  }
  if (used < kRowWidth) {
    row[used++] = partner;
    return false;
  }
  return spill(row, used, partner);
}

bool NeighborRecorder::spill(NodeKey* row, std::uint8_t& used,
                             NodeKey partner) {
  NodeKey* link = &row[kRowWidth - 1];
  if (used != kSpilled) {
    // First spill: the row's last partner moves to a fresh block and its
    // slot becomes the link.
    const NodeKey block = new_block();
    pool_[static_cast<std::size_t>(block) + 1] = *link;
    *link = block;
    used = kSpilled;
  }
  for (NodeKey block = *link;;) {
    const auto base = static_cast<std::size_t>(block);
    for (std::size_t i = base + 1; i < base + kRowWidth; ++i) {
      if (pool_[i] == partner) return true;
      if (pool_[i] == sim::kNoNode) {
        pool_[i] = partner;
        return false;
      }
    }
    if (pool_[base] == sim::kNoNode) {
      const NodeKey next = new_block();
      pool_[base] = next;
      pool_[static_cast<std::size_t>(next) + 1] = partner;
      return false;
    }
    block = pool_[base];
  }
}

NodeKey NeighborRecorder::new_block() {
  if (ledger_ != nullptr) {
    ledger_->charge("metrics/neighbor-recorder", kRowWidth * sizeof(NodeKey));
  }
  const auto block = static_cast<NodeKey>(pool_.size());
  pool_.resize(pool_.size() + kRowWidth, sim::kNoNode);
  return block;
}

std::size_t NeighborRecorder::count(NodeKey node) const {
  const std::uint8_t used = used_[static_cast<std::size_t>(node)];
  if (used != kSpilled) return used;
  std::size_t total = kRowWidth - 1;
  const NodeKey* row =
      partners_.data() + static_cast<std::size_t>(node) * kRowWidth;
  for (NodeKey block = row[kRowWidth - 1]; block != sim::kNoNode;
       block = pool_[static_cast<std::size_t>(block)]) {
    const auto first = pool_.begin() + block + 1;
    total += static_cast<std::size_t>(
        std::count_if(first, first + (kRowWidth - 1),
                      [](NodeKey p) { return p != sim::kNoNode; }));
  }
  return total;
}

std::size_t NeighborRecorder::max_count(NodeKey from, NodeKey to) const {
  std::size_t best = 0;
  for (NodeKey n = from; n <= to; ++n) best = std::max(best, count(n));
  return best;
}

double NeighborRecorder::mean_count(NodeKey from, NodeKey to) const {
  assert(from <= to);
  double sum = 0;
  for (NodeKey n = from; n <= to; ++n) {
    sum += static_cast<double>(count(n));
  }
  return sum / static_cast<double>(to - from + 1);
}

}  // namespace streamcast::metrics
