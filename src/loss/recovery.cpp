// streamcast: hot-path (lint: hot-path-alloc applies to this file)
#include "src/loss/recovery.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "src/policy/registry.hpp"

namespace streamcast::loss {

void SequenceTracker::mark(PacketId p) {
  if (p < next_) return;
  if (p == next_) {
    ++next_;
    advance();
    return;
  }
  if (last_ < next_) {
    // First packet ahead of a gap: start the bitmap at the prefix's word.
    base_ = next_ & ~PacketId{63};
    words_.assign(static_cast<std::size_t>((p - base_) >> 6) + 1, 0);
  } else if (p > last_) {
    words_.resize(static_cast<std::size_t>((p - base_) >> 6) + 1, 0);
  }
  const auto off = static_cast<std::uint64_t>(p - base_);
  words_[off >> 6] |= std::uint64_t{1} << (off & 63);
  last_ = std::max(last_, p);
}

void SequenceTracker::start_at(PacketId p) {
  if (p <= next_) return;
  next_ = p;
  advance();
}

void SequenceTracker::advance() {
  // Bits below next_ are stale (already swallowed) and ids above last_ are
  // clear, so the scan stops at last_ + 1 at the latest. With nothing
  // ahead the loop does not run and the bitmap stays empty.
  while (next_ <= last_) {
    const auto off = static_cast<std::uint64_t>(next_ - base_);
    const std::uint64_t rest = words_[off >> 6] >> (off & 63);
    const int ones = std::countr_one(rest);
    next_ += ones;
    if (std::cmp_less(ones, 64 - (off & 63))) break;  // hit a missing id
  }
  if (last_ < next_) {
    last_ = next_ - 1;
    words_.clear();
    return;
  }
  const auto passed = static_cast<std::size_t>((next_ - base_) >> 6);
  if (passed > 0) {
    words_.erase(words_.begin(),
                 words_.begin() + static_cast<std::ptrdiff_t>(passed));
    base_ += static_cast<PacketId>(passed) * 64;
  }
}

PacketId SequenceTracker::next_ahead(PacketId from) const {
  const PacketId lo = std::max(from, next_);
  if (lo > last_) return sim::kNoPacket;
  const auto off = static_cast<std::uint64_t>(lo - base_);
  auto word = static_cast<std::size_t>(off >> 6);
  std::uint64_t bits = words_[word] & (~std::uint64_t{0} << (off & 63));
  while (bits == 0) {
    if (++word == words_.size()) return sim::kNoPacket;
    bits = words_[word];
  }
  return base_ + static_cast<PacketId>(word) * 64 + std::countr_zero(bits);
}

RecoveryProtocol::RecoveryProtocol(const net::Topology& topology,
                                   sim::Protocol& inner,
                                   RecoveryOptions options)
    : topology_(topology), inner_(inner), options_(options) {
  const auto n = static_cast<std::size_t>(topology_.size());
  receivers_.resize(n);
  send_epoch_.assign(n, Slot{-1});
  send_used_.assign(n, 0);
  recv_epoch_.assign(n, Slot{-1});
  recv_used_.assign(n, 0);
  if (options_.fec_window < 1) options_.fec_window = 1;

  const std::string name = options_.policy.empty()
                               ? policy::recovery_policy_name(options_.mode)
                               : options_.policy;
  policy_ = policy::recovery_policy(name).make(options_);
  policy_->bind(*this);
}

NodeKey RecoveryProtocol::node_count() const { return topology_.size(); }

Slot RecoveryProtocol::link_latency(NodeKey from, NodeKey to) const {
  return topology_.latency(from, to);
}

bool RecoveryProtocol::holds(NodeKey node, PacketId p) const {
  if (node == policy::kStreamSource) return true;
  return receiver(node).tracker.has(p);
}

bool RecoveryProtocol::has_arrived(NodeKey node, PacketId p) const {
  return receiver(node).tracker.has(p);
}

PacketId RecoveryProtocol::gap_free_prefix(NodeKey node) const {
  return receiver(node).tracker.gap_free_prefix();
}

bool RecoveryProtocol::ahead_empty(NodeKey node) const {
  return receiver(node).tracker.ahead_empty();
}

PacketId RecoveryProtocol::highest_held(NodeKey node) const {
  return receiver(node).tracker.highest_held();
}

PacketId RecoveryProtocol::next_ahead(NodeKey node, PacketId from) const {
  return receiver(node).tracker.next_ahead(from);
}

bool RecoveryProtocol::in_flight(NodeKey to, PacketId p) const {
  const auto& flying = receiver(to).in_flight;
  return std::ranges::find(flying, p) != flying.end();
}

void RecoveryProtocol::set_in_flight(NodeKey to, PacketId p, bool value) {
  auto& flying = receiver(to).in_flight;
  const auto it = std::ranges::find(flying, p);
  if (value) {
    if (it == flying.end()) flying.push_back(p);
  } else if (it != flying.end()) {
    *it = flying.back();
    flying.pop_back();
  }
}

RecoveryProtocol::Substream& RecoveryProtocol::substream(Receiver& r,
                                                         std::int32_t tag) {
  for (Substream& sub : r.gate) {
    if (sub.tag == tag) return sub;
  }
  Substream& added = r.gate.emplace_back();
  added.tag = tag;
  return added;
}

bool RecoveryProtocol::retire_gap(Receiver& r, PacketId p,
                                  std::int32_t* tag) {
  if (r.open_gaps == 0) return false;
  for (Substream& sub : r.gate) {
    const auto it = std::ranges::lower_bound(sub.gaps, p);
    if (it == sub.gaps.end() || *it != p) continue;
    sub.gaps.erase(it);
    --r.open_gaps;
    *tag = sub.tag;
    return true;
  }
  return false;
}

void RecoveryProtocol::mark_outstanding(NodeKey to, std::int32_t tag,
                                        PacketId p) {
  Receiver& r = receiver(to);
  if (r.tracker.has(p)) return;
  for (const Substream& sub : r.gate) {
    if (std::ranges::binary_search(sub.gaps, p)) return;
  }
  auto& gaps = substream(r, tag).gaps;
  gaps.insert(std::ranges::upper_bound(gaps, p), p);
  ++r.open_gaps;
}

void RecoveryProtocol::abandon_gap(Slot t, NodeKey to, PacketId p) {
  Receiver& r = receiver(to);
  const auto at = std::ranges::lower_bound(r.abandoned, p);
  if (at == r.abandoned.end() || *at != p) r.abandoned.insert(at, p);
  std::int32_t tag = 0;
  if (!retire_gap(r, p, &tag)) return;
  // The packet itself is never delivered — the continuity metrics report it
  // as an undecodable gap — but whatever it was holding back flows again.
  flush_held_back(t, r, tag);
}

// lint: allow(hot-path-alloc) — a view of the receiver's sender list
const std::vector<NodeKey>& RecoveryProtocol::senders_seen(NodeKey to) const {
  return receiver(to).senders_seen;
}

bool RecoveryProtocol::send_available(NodeKey from) const {
  const auto i = static_cast<std::size_t>(from);
  const int used = send_epoch_[i] == now_ ? send_used_[i] : 0;
  return used < topology_.send_capacity(from);
}

void RecoveryProtocol::use_send(NodeKey from) {
  const auto i = static_cast<std::size_t>(from);
  if (send_epoch_[i] != now_) {
    send_epoch_[i] = now_;
    send_used_[i] = 0;
  }
  ++send_used_[i];
}

std::size_t RecoveryProtocol::recv_cell(Slot arrive, NodeKey to) const {
  const auto ring = static_cast<std::size_t>(recv_ring_);
  return (static_cast<std::size_t>(arrive) & (ring - 1)) * receivers_.size() +
         static_cast<std::size_t>(to);
}

void RecoveryProtocol::grow_recv_ring(Slot span) {
  const auto ring =
      static_cast<Slot>(std::bit_ceil(static_cast<std::uint64_t>(span)));
  const std::size_t n = receivers_.size();
  // lint: allow(hot-path-alloc) — ring re-layout on latency growth
  std::vector<Slot> epoch(static_cast<std::size_t>(ring) * n, Slot{-1});
  std::vector<int> used(epoch.size(), 0);  // lint: allow(hot-path-alloc)
  for (std::size_t cell = 0; cell < recv_epoch_.size(); ++cell) {
    const Slot e = recv_epoch_[cell];
    if (e < now_) continue;  // that arrival slot has passed
    const auto moved = static_cast<std::size_t>(e & (ring - 1)) * n + cell % n;
    epoch[moved] = e;
    used[moved] = recv_used_[cell];
  }
  recv_epoch_ = std::move(epoch);
  recv_used_ = std::move(used);
  recv_ring_ = ring;
}

bool RecoveryProtocol::recv_headroom(Slot arrive, NodeKey to) const {
  assert(arrive >= now_);
  int used = 0;
  if (arrive - now_ < recv_ring_) {
    const std::size_t cell = recv_cell(arrive, to);
    if (recv_epoch_[cell] == arrive) used = recv_used_[cell];
  }
  return used < topology_.recv_capacity(to);
}

void RecoveryProtocol::note_planned_arrival(Slot arrive, NodeKey to) {
  assert(arrive >= now_);
  if (arrive - now_ >= recv_ring_) grow_recv_ring(arrive - now_ + 1);
  const std::size_t cell = recv_cell(arrive, to);
  if (recv_epoch_[cell] != arrive) {
    recv_epoch_[cell] = arrive;
    recv_used_[cell] = 0;
  }
  ++recv_used_[cell];
}

void RecoveryProtocol::ingest_decoded(Slot t, const Tx& tx) {
  const sim::Delivery synthetic{.sent = t, .received = t, .tx = tx};
  for (sim::DeliveryObserver* obs : observers_) obs->on_delivery(synthetic);
  ingest_data(t, tx);
}

void RecoveryProtocol::seat(NodeKey node, PacketId live_edge) {
  Receiver& r = receiver(node);
  r.tracker.start_at(live_edge);
  // The ids below the live edge are forgiven, so the gate stops waiting on
  // them: close those gaps and release what they held back, in order.
  for (Substream& sub : r.gate) {
    const auto open = std::ranges::lower_bound(sub.gaps, live_edge);
    if (open == sub.gaps.begin()) continue;
    r.open_gaps -= open - sub.gaps.begin();
    sub.gaps.erase(sub.gaps.begin(), open);
    flush_held_back(now_, r, sub.tag);
  }
  policy_->on_seat(*this, node);
}

// lint: allow(hot-path-alloc) — appends to the engine's slot list
void RecoveryProtocol::transmit(Slot t, std::vector<Tx>& out) {
  inner_scratch_.clear();
  inner_.transmit(t, inner_scratch_);
  now_ = t;

  for (const Tx& tx : inner_scratch_) {
    assert(tx.packet < sim::kControlIdBase);
    if (!holds(tx.from, tx.packet)) {
      // Causality violation: the lossless schedule assumed this packet had
      // arrived at the sender. Suppress; the policy repairs the downstream
      // gap once the sender (or anyone else) holds it.
      ++stats_.suppressed_causal;
      policy_->on_suppressed_causal(*this, t, tx);
      continue;
    }
    if (holds(tx.to, tx.packet) || in_flight(tx.to, tx.packet)) {
      // Redundant under loss (e.g. a chain node relaying a stale "newest"
      // twice, or a repair already on its way). Suppressing keeps the
      // duplicate-free engine invariant and frees the slot for repairs.
      ++stats_.suppressed_redundant;
      policy_->on_suppressed_redundant(*this, t, tx);
      continue;
    }
    policy_->on_data_emitted(*this, t, tx);
    out.push_back(tx);
    use_send(tx.from);
    note_planned_arrival(t + topology_.latency(tx.from, tx.to) - 1, tx.to);
    set_in_flight(tx.to, tx.packet, true);
    ++stats_.data_transmissions;
  }

  policy_->emit(*this, t, out);
}

void RecoveryProtocol::deliver(Slot t, const Tx& tx) {
  if (tx.packet >= sim::kControlIdBase) {
    policy_->on_control_arrival(*this, t, tx);
    return;
  }
  auto& seen = receiver(tx.to).senders_seen;
  if (std::ranges::find(seen, tx.from) == seen.end()) seen.push_back(tx.from);
  ingest_data(t, tx);
  policy_->on_data_arrival(*this, t, tx);
}

void RecoveryProtocol::ingest_data(Slot t, const Tx& tx) {
  Receiver& r = receiver(tx.to);
  r.tracker.mark(tx.packet);
  set_in_flight(tx.to, tx.packet, false);
  policy_->on_data_ingested(*this, t, tx);
  if (r.open_gaps == 0) {
    // No open gap at this receiver, hence nothing held back either: the
    // packet passes straight through the gate.
    inner_.deliver(t, tx);
    return;
  }
  // If this packet was a known gap, retire it from the in-order gate (the
  // release below plus the flush unblocks everything it was holding back).
  Tx release = tx;
  retire_gap(r, tx.packet, &release.tag);
  release_in_order(t, r, release);
  flush_held_back(t, r, release.tag);
}

void RecoveryProtocol::release_in_order(Slot t, Receiver& r, const Tx& tx) {
  for (Substream& sub : r.gate) {
    if (sub.tag != tx.tag) continue;
    if (sub.gaps.empty() || sub.gaps.front() >= tx.packet) break;
    // An older gap of this substream is open: hold the packet back (once).
    auto& held = sub.held;
    const auto at = std::ranges::lower_bound(held, tx.packet, {}, &Tx::packet);
    if (at == held.end() || at->packet != tx.packet) held.insert(at, tx);
    return;
  }
  inner_.deliver(t, tx);
}

void RecoveryProtocol::flush_held_back(Slot t, Receiver& r, std::int32_t tag) {
  for (Substream& sub : r.gate) {
    if (sub.tag != tag) continue;
    auto& held = sub.held;
    // Everything up to the oldest still-open gap flows, in packet order.
    std::size_t released = 0;
    while (released < held.size() &&
           (sub.gaps.empty() || sub.gaps.front() >= held[released].packet)) {
      const Tx tx = held[released++];
      inner_.deliver(t, tx);
    }
    held.erase(held.begin(),
               held.begin() + static_cast<std::ptrdiff_t>(released));
    return;
  }
}

void RecoveryProtocol::on_deliveries(
    std::span<const sim::Delivery> arrivals) {
  // Fan the post-repair stream out to attached metrics, the engine's slot
  // span as it is. Policy-decoded packets are synthesized in
  // ingest_decoded; everything the engine actually delivered (data,
  // repairs, parity) passes through here.
  for (sim::DeliveryObserver* obs : observers_) obs->on_deliveries(arrivals);
}

void RecoveryProtocol::on_drop(const sim::Drop& d) {
  const Tx& tx = d.tx;
  if (tx.packet >= sim::kControlIdBase) {
    policy_->on_control_drop(*this, d);
    return;
  }
  set_in_flight(tx.to, tx.packet, false);
  mark_outstanding(tx.to, tx.tag, tx.packet);
  for (sim::DeliveryObserver* obs : observers_) obs->on_drop(d);
  policy_->on_data_drop(*this, d);
}

bool RecoveryProtocol::all_gap_free(NodeKey from, NodeKey to,
                                    PacketId window) const {
  for (NodeKey n = from; n <= to; ++n) {
    if (gap_free_prefix(n) < window) return false;
  }
  return true;
}

bool RecoveryProtocol::gaps_resolved(NodeKey from, NodeKey to,
                                     PacketId window) const {
  for (NodeKey n = from; n <= to; ++n) {
    const Receiver& r = receiver(n);
    auto abandoned = std::ranges::lower_bound(r.abandoned,
                                              r.tracker.gap_free_prefix());
    for (PacketId p = r.tracker.gap_free_prefix(); p < window; ++p) {
      if (r.tracker.has(p)) continue;
      while (abandoned != r.abandoned.end() && *abandoned < p) ++abandoned;
      if (abandoned == r.abandoned.end() || *abandoned != p) return false;
    }
  }
  return true;
}

}  // namespace streamcast::loss
