// streamcast: hot-path (lint: hot-path-alloc applies to this file)
#include "src/policy/xor_parity.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace streamcast::policy {

void XorParityPolicy::bind(RecoveryHost& host) {
  receivers_.resize(static_cast<std::size_t>(host.node_count()));
  fec_acc_.bind(host.node_count());
}

int XorParityPolicy::new_window() {
  if (free_.empty()) {
    windows_.emplace_back();
    return static_cast<int>(windows_.size()) - 1;
  }
  const int slot = free_.back();
  free_.pop_back();
  return slot;
}

void XorParityPolicy::free_window(int slot) { free_.push_back(slot); }

bool XorParityPolicy::take_in_air(PacketId id, int* slot) {
  const auto it = std::ranges::find_if(in_air_, [&](int s) {
    return windows_[static_cast<std::size_t>(s)].id == id;
  });
  if (it == in_air_.end()) return false;
  *slot = *it;
  in_air_.erase(it);
  return true;
}

void XorParityPolicy::on_data_emitted(RecoveryHost& /*host*/, Slot /*t*/,
                                      const Tx& tx) {
  auto& acc = fec_acc_.get(tx.from, tx.to);
  acc.push_back(tx);
  if (std::cmp_less(acc.size(), options().fec_window)) return;
  const int slot = new_window();
  ParityWindow& window = windows_[static_cast<std::size_t>(slot)];
  window.id = next_parity_id_++;
  window.from = tx.from;
  window.to = tx.to;
  // The window takes the accumulated data; the accumulator takes the
  // slot's previous (recycled) buffer.
  window.data.swap(acc);
  acc.clear();
  queue_.push_back(slot);
}

// lint: allow(hot-path-alloc) — appends to the slot's output list
void XorParityPolicy::emit(RecoveryHost& host, Slot t, std::vector<Tx>& out) {
  std::size_t kept = 0;
  for (const int slot : queue_) {
    const ParityWindow& window = windows_[static_cast<std::size_t>(slot)];
    if (!host.send_available(window.from) ||
        !host.recv_headroom(t + host.link_latency(window.from, window.to) - 1,
                            window.to)) {
      queue_[kept++] = slot;  // blocked on capacity; keep for a later slot
      continue;
    }
    out.push_back(Tx{.from = window.from,
                     .to = window.to,
                     .packet = window.id,
                     .tag = -1});
    host.use_send(window.from);
    host.note_planned_arrival(
        t + host.link_latency(window.from, window.to) - 1, window.to);
    ++host.stats().parity_transmissions;
    in_air_.push_back(slot);
  }
  queue_.resize(kept);
}

void XorParityPolicy::arrived(Receiver& r, PacketId packet) {
  const auto [lo, hi] =
      std::ranges::equal_range(r.waiting, packet, {}, &Waiting::packet);
  if (lo == hi) return;
  for (auto it = lo; it != hi; ++it) {
    ParityWindow& window = windows_[static_cast<std::size_t>(it->window)];
    if (--window.missing == 1) ++r.decodable;
  }
  r.waiting.erase(lo, hi);
}

void XorParityPolicy::on_data_ingested(RecoveryHost& /*host*/, Slot /*t*/,
                                       const Tx& tx) {
  arrived(receivers_[static_cast<std::size_t>(tx.to)], tx.packet);
}

void XorParityPolicy::on_seat(RecoveryHost& host, NodeKey node) {
  // Seating forgives every id below the new prefix at once; count the ones
  // unresolved windows were waiting on as arrived.
  Receiver& r = receivers_[static_cast<std::size_t>(node)];
  std::erase_if(r.waiting, [&](const Waiting& w) {
    if (!host.has_arrived(node, w.packet)) return false;
    ParityWindow& window = windows_[static_cast<std::size_t>(w.window)];
    if (--window.missing == 1) ++r.decodable;
    return true;
  });
}

void XorParityPolicy::on_data_arrival(RecoveryHost& host, Slot t,
                                      const Tx& tx) {
  recheck_unresolved(host, t, tx.to);
}

void XorParityPolicy::on_control_arrival(RecoveryHost& host, Slot t,
                                         const Tx& tx) {
  int slot = 0;
  if (take_in_air(tx.packet, &slot)) on_parity(host, t, slot);
}

void XorParityPolicy::on_parity(RecoveryHost& host, Slot t, int slot) {
  ParityWindow& window = windows_[static_cast<std::size_t>(slot)];
  const NodeKey to = window.to;
  const Tx* missing = nullptr;
  int missing_count = 0;
  for (const Tx& data : window.data) {
    if (host.has_arrived(to, data.packet)) continue;
    ++missing_count;
    missing = &data;
  }
  if (missing_count == 0) {
    free_window(slot);
    return;
  }
  if (missing_count == 1 && !host.in_flight(to, missing->packet)) {
    // XOR of the parity with the w-1 received packets yields the missing
    // one.
    ++host.stats().fec_decodes;
    const Tx decoded = *missing;
    free_window(slot);
    host.ingest_decoded(t, decoded);
    return;
  }
  // Cannot (or need not yet) decode: wait for the missing packets.
  Receiver& r = receivers_[static_cast<std::size_t>(to)];
  window.missing = missing_count;
  for (const Tx& data : window.data) {
    if (host.has_arrived(to, data.packet)) continue;
    const auto at = std::ranges::upper_bound(r.waiting, data.packet, {},
                                             &Waiting::packet);
    r.waiting.insert(at, Waiting{.packet = data.packet, .window = slot});
  }
  if (missing_count <= 1) ++r.decodable;
  r.unresolved.push_back(slot);
}

bool XorParityPolicy::try_resolve(RecoveryHost& host, Slot t, int slot) {
  ParityWindow& window = windows_[static_cast<std::size_t>(slot)];
  if (window.missing > 1) return false;
  const NodeKey to = window.to;
  Receiver& r = receivers_[static_cast<std::size_t>(to)];
  if (window.missing == 0) {
    --r.decodable;
    free_window(slot);
    return true;
  }
  const Tx* missing = nullptr;
  for (const Tx& data : window.data) {
    if (!host.has_arrived(to, data.packet)) missing = &data;
  }
  assert(missing != nullptr);
  if (host.in_flight(to, missing->packet)) return false;
  ++host.stats().fec_decodes;
  const Tx decoded = *missing;
  const auto [lo, hi] =
      std::ranges::equal_range(r.waiting, decoded.packet, {}, &Waiting::packet);
  r.waiting.erase(std::ranges::find(lo, hi, slot, &Waiting::window));
  --r.decodable;
  free_window(slot);
  host.ingest_decoded(t, decoded);
  return true;
}

void XorParityPolicy::recheck_unresolved(RecoveryHost& host, Slot t,
                                         NodeKey node) {
  Receiver& r = receivers_[static_cast<std::size_t>(node)];
  // A successful decode can make another window of the same receiver
  // decodable, so iterate to a fixpoint. Only windows down to one missing
  // packet can resolve, so a receiver without one skips the pass.
  const auto resolved = [&](int slot) { return try_resolve(host, t, slot); };
  while (r.decodable > 0 && std::erase_if(r.unresolved, resolved) > 0) {
  }
}

void XorParityPolicy::on_control_drop(RecoveryHost& /*host*/,
                                      const sim::Drop& d) {
  // A lost parity packet: its window is simply unprotected.
  int slot = 0;
  if (take_in_air(d.tx.packet, &slot)) free_window(slot);
}

}  // namespace streamcast::policy
