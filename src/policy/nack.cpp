// streamcast: hot-path (lint: hot-path-alloc applies to this file)
#include "src/policy/nack.hpp"

#include <algorithm>

namespace streamcast::policy {

namespace {

/// Cap on how many skipped ids one transmission may open for repair; a dense
/// scheme advances one id per slot per link, so anything near this bound
/// would indicate a mis-flagged strided scheme.
constexpr PacketId kMaxSkipRange = 4096;

}  // namespace

void NackPolicy::bind(RecoveryHost& host) {
  receivers_.resize(static_cast<std::size_t>(host.node_count()));
  if (options().dense_links) last_emitted_.bind(host.node_count());
}

void NackPolicy::bump_last_emitted(const Tx& tx) {
  // Only dense-link skip detection reads the newest emitted id.
  if (!options().dense_links) return;
  PacketId& last = last_emitted_.get(tx.from, tx.to);
  last = std::max(last, tx.packet);
}

Slot NackPolicy::nack_due(const RecoveryHost& host, Slot detect_slot,
                          NodeKey from, NodeKey to) const {
  // The receiver notices the gap in `detect_slot`, NACKs the sender (one
  // reverse-link trip), and the repair may leave the following slot.
  return detect_slot + host.link_latency(to, from) + 1 + options().nack_delay;
}

bool NackPolicy::pending(NodeKey to, PacketId p) const {
  const auto& repairs = receivers_[static_cast<std::size_t>(to)].pending;
  const auto it = std::ranges::lower_bound(repairs, p, {}, &Repair::packet);
  return it != repairs.end() && it->packet == p;
}

void NackPolicy::schedule_repair(RecoveryHost& host, NodeKey to, PacketId p,
                                 NodeKey sender, std::int32_t tag, Slot due) {
  Receiver& r = receivers_[static_cast<std::size_t>(to)];
  const auto it = std::ranges::lower_bound(r.pending, p, {}, &Repair::packet);
  if (it != r.pending.end() && it->packet == p) {
    // A repair for this gap was already pending (e.g. the repair itself was
    // dropped): refresh it.
    it->due = due;
    it->in_flight = false;
  } else {
    r.pending.insert(
        it, Repair{.packet = p, .sender = sender, .tag = tag, .due = due});
    if (!r.listed) {
      r.listed = true;
      active_.insert(std::ranges::upper_bound(active_, to), to);
    }
  }
  ++host.stats().nacks;
}

void NackPolicy::on_suppressed_causal(RecoveryHost& host, Slot t,
                                      const Tx& tx) {
  bump_last_emitted(tx);
  if (!host.holds(tx.to, tx.packet) && !pending(tx.to, tx.packet)) {
    host.mark_outstanding(tx.to, tx.tag, tx.packet);
    schedule_repair(host, tx.to, tx.packet, tx.from, tx.tag,
                    nack_due(host, t + host.link_latency(tx.from, tx.to) - 1,
                             tx.from, tx.to));
  }
}

void NackPolicy::on_suppressed_redundant(RecoveryHost& /*host*/, Slot /*t*/,
                                         const Tx& tx) {
  bump_last_emitted(tx);
}

void NackPolicy::on_data_emitted(RecoveryHost& host, Slot t, const Tx& tx) {
  if (options().dense_links) detect_dense_skips(host, t, tx);
  bump_last_emitted(tx);
}

void NackPolicy::detect_dense_skips(RecoveryHost& host, Slot t, const Tx& tx) {
  // On a dense link the very first emission is id 0 on a lossless run, so an
  // absent entry is baseline -1: a first emission of id > 0 means the ids
  // below it were lost upstream before this link ever carried them.
  const PacketId* seen = last_emitted_.find(tx.from, tx.to);
  const PacketId last = seen == nullptr ? -1 : *seen;
  if (tx.packet <= last + 1) return;
  const PacketId lo = std::max(last + 1, tx.packet - kMaxSkipRange);
  for (PacketId g = lo; g < tx.packet; ++g) {
    if (host.has_arrived(tx.to, g)) continue;
    if (host.in_flight(tx.to, g)) continue;
    if (pending(tx.to, g)) continue;
    host.mark_outstanding(tx.to, tx.tag, g);
    schedule_repair(host, tx.to, g, tx.from, tx.tag,
                    nack_due(host, t + host.link_latency(tx.from, tx.to) - 1,
                             tx.from, tx.to));
  }
}

void NackPolicy::sweep_aged_gaps(RecoveryHost& host, Slot t) {
  const NodeKey size = host.node_count();
  for (NodeKey v = 0; v < size; ++v) {
    if (v == options().source) continue;
    if (host.ahead_empty(v)) continue;
    // The gaps are the missing ids below each id held ahead of the prefix,
    // visited in ascending order; `seen` is walked alongside by a cursor.
    auto& seen = receivers_[static_cast<std::size_t>(v)].gap_seen;
    std::size_t cursor = 0;
    PacketId expected = host.gap_free_prefix(v);
    for (PacketId a = host.next_ahead(v, expected); a != sim::kNoPacket;
         a = host.next_ahead(v, a + 1)) {
      for (PacketId g = expected; g < a; ++g) {
        while (cursor < seen.size() && seen[cursor].packet < g) ++cursor;
        const bool known = cursor < seen.size() && seen[cursor].packet == g;
        if (options().repair_horizon >= 0 &&
            t - g > options().repair_horizon) {
          // Too old to matter: a repair would land after the packet's play
          // deadline. Give the gap up instead of congesting the links.
          if (!host.in_flight(v, g) && !pending(v, g)) {
            host.abandon_gap(t, v, g);
            if (known) {
              seen.erase(seen.begin() + static_cast<std::ptrdiff_t>(cursor));
            }
          }
          continue;
        }
        if (!known) {
          seen.insert(seen.begin() + static_cast<std::ptrdiff_t>(cursor),
                      GapSeen{.packet = g, .slot = t});
          continue;
        }
        if (t - seen[cursor].slot < options().gap_timeout) continue;
        if (host.in_flight(v, g) || pending(v, g)) continue;
        host.mark_outstanding(v, options().sweep_tag, g);
        schedule_repair(host, v, g, options().source, options().sweep_tag, t);
      }
      expected = a + 1;
    }
  }
}

NodeKey NackPolicy::repair_source(const RecoveryHost& host, Slot t,
                                  NodeKey to, const Repair& repair) const {
  // The original sender if it holds the packet by now, else any node that
  // has previously delivered to this receiver, else the stream source —
  // first match with residual send capacity and receive headroom at the
  // arrival slot.
  const auto usable = [&](NodeKey s) {
    return s != to && s >= 0 && host.holds(s, repair.packet) &&
           host.send_available(s) &&
           host.recv_headroom(t + host.link_latency(s, to) - 1, to);
  };
  if (usable(repair.sender)) return repair.sender;
  for (const NodeKey s : host.senders_seen(to)) {
    if (usable(s)) return s;
  }
  return usable(options().source) ? options().source : sim::kNoNode;
}

// lint: allow(hot-path-alloc) — appends to the slot's output list
void NackPolicy::emit(RecoveryHost& host, Slot t, std::vector<Tx>& out) {
  if (options().gap_timeout >= 0) sweep_aged_gaps(host, t);
  // Repairs go out in the order the golden reports pin: receivers
  // ascending, packets ascending within each.
  for (const NodeKey to : active_) {
    auto& repairs = receivers_[static_cast<std::size_t>(to)].pending;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < repairs.size(); ++i) {
      Repair& repair = repairs[i];
      if (host.has_arrived(to, repair.packet)) continue;  // closed: drop it
      // Send it once due and not already on its way; with no holder that
      // has capacity this slot, it waits for a later slot.
      NodeKey from = sim::kNoNode;
      if (!repair.in_flight && repair.due <= t &&
          !host.in_flight(to, repair.packet)) {
        from = repair_source(host, t, to, repair);
      }
      if (from != sim::kNoNode) {
        out.push_back(Tx{.from = from,
                         .to = to,
                         .packet = repair.packet,
                         .tag = repair.tag,
                         .retransmit = true});
        ++host.stats().retransmissions;
        host.use_send(from);
        host.note_planned_arrival(t + host.link_latency(from, to) - 1, to);
        host.set_in_flight(to, repair.packet, true);
        repair.in_flight = true;
      }
      repairs[kept++] = repair;
    }
    repairs.resize(kept);
  }
  std::erase_if(active_, [&](NodeKey to) {
    Receiver& r = receivers_[static_cast<std::size_t>(to)];
    if (!r.pending.empty()) return false;
    r.listed = false;
    return true;
  });
}

void NackPolicy::on_data_ingested(RecoveryHost& /*host*/, Slot /*t*/,
                                  const Tx& tx) {
  Receiver& r = receivers_[static_cast<std::size_t>(tx.to)];
  const auto repair =
      std::ranges::lower_bound(r.pending, tx.packet, {}, &Repair::packet);
  if (repair != r.pending.end() && repair->packet == tx.packet) {
    r.pending.erase(repair);
  }
  const auto seen =
      std::ranges::lower_bound(r.gap_seen, tx.packet, {}, &GapSeen::packet);
  if (seen != r.gap_seen.end() && seen->packet == tx.packet) {
    r.gap_seen.erase(seen);
  }
}

void NackPolicy::on_data_drop(RecoveryHost& host, const sim::Drop& d) {
  schedule_repair(host, d.tx.to, d.tx.packet, d.tx.from, d.tx.tag,
                  nack_due(host, d.would_arrive, d.tx.from, d.tx.to));
}

}  // namespace streamcast::policy
