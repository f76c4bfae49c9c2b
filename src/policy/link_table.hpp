// streamcast: hot-path (lint: hot-path-alloc applies to this file)
//
// Flat per-link state for the recovery policies (DESIGN.md §15).
//
// A LinkTable maps an overlay link (from, to) to one T. Each sender keeps a
// short list of (to, slot) pairs — an overlay node has a handful of
// out-links — and the Ts live in one vector in creation order, addressed by
// slot, so a lookup is a scan of the sender's out-links and an insert never
// moves existing state. order() lists the slots in (from, to) order for the
// policies whose emit pass walks the links in that order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/packet.hpp"

namespace streamcast::policy {

template <typename T>
class LinkTable {
 public:
  /// Sizes the per-sender lists for node keys [0, nodes).
  void bind(sim::NodeKey nodes) {
    out_.assign(static_cast<std::size_t>(nodes), {});
  }

  /// The link's state, or nullptr when the link was never used.
  T* find(sim::NodeKey from, sim::NodeKey to) {
    for (const auto& [dst, slot] : out_[static_cast<std::size_t>(from)]) {
      if (dst == to) return &items_[slot];
    }
    return nullptr;
  }

  /// The link's state, default-constructed on first use.
  T& get(sim::NodeKey from, sim::NodeKey to) {
    if (T* found = find(from, to)) return *found;
    const auto slot = static_cast<std::uint32_t>(items_.size());
    items_.emplace_back();
    out_[static_cast<std::size_t>(from)].emplace_back(to, slot);
    const std::uint64_t k = key(from, to);
    const auto at = std::ranges::upper_bound(
        order_, k, {}, [&](std::uint32_t s) { return keys_[s]; });
    keys_.push_back(k);
    order_.insert(at, slot);
    return items_.back();
  }

  T& at_slot(std::uint32_t slot) { return items_[slot]; }

  /// Slots of every link in (from, to) order.
  // lint: allow(hot-path-alloc) — a view of order_
  const std::vector<std::uint32_t>& order() const { return order_; }

  /// Sender and receiver of the link in `slot`.
  std::pair<sim::NodeKey, sim::NodeKey> link(std::uint32_t slot) const {
    const std::uint64_t k = keys_[slot];
    return {static_cast<sim::NodeKey>(k >> 32),
            static_cast<sim::NodeKey>(k & 0xffffffffU)};
  }

 private:
  static std::uint64_t key(sim::NodeKey from, sim::NodeKey to) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
            << 32) |
           static_cast<std::uint32_t>(to);
  }

  // lint: allow(hot-path-alloc) — per sender: (to, slot), one per out-link
  std::vector<std::vector<std::pair<sim::NodeKey, std::uint32_t>>> out_;
  // lint: allow(hot-path-alloc) — one record per link, in creation order
  std::vector<T> items_;
  // lint: allow(hot-path-alloc) — (from, to) key of each slot
  std::vector<std::uint64_t> keys_;
  // lint: allow(hot-path-alloc) — one per link, sorted on insert
  std::vector<std::uint32_t> order_;
};

}  // namespace streamcast::policy
