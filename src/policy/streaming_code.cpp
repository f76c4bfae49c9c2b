// streamcast: hot-path (lint: hot-path-alloc applies to this file)
#include "src/policy/streaming_code.hpp"

#include <algorithm>

namespace streamcast::policy {

namespace {

/// Cap on how many skipped ids one transmission may open for forwarding; a
/// dense scheme advances one id per slot per link, so anything near this
/// bound would indicate a mis-flagged strided scheme.
constexpr PacketId kMaxSkipRange = 4096;

/// Dead uses a link accumulates before prune() shifts its use vector.
constexpr std::int64_t kPruneBatch = 64;

}  // namespace

StreamingCodePolicy::StreamingCodePolicy(const RecoveryPolicyOptions& options)
    : RecoveryPolicy(options),
      decode_delay_(std::max<Slot>(1, options.code.decode_delay)),
      max_burst_(std::max<PacketId>(1, options.code.burst)) {
  // BLK needs T >= B: a burst must fit inside its own decode window.
  decode_delay_ = std::max(decode_delay_, static_cast<Slot>(max_burst_));
}

void StreamingCodePolicy::bind(RecoveryHost& host) {
  code_links_.bind(host.node_count());
  lost_.resize(static_cast<std::size_t>(host.node_count()));
}

StreamingCodePolicy::Use* StreamingCodePolicy::find_use(Link& link,
                                                        UseIndex idx) {
  if (idx < link.first || idx >= link.next_index) return nullptr;
  return &use_at(link, idx);
}

bool StreamingCodePolicy::lost(NodeKey node, PacketId id) const {
  return std::ranges::binary_search(lost_[static_cast<std::size_t>(node)], id);
}

void StreamingCodePolicy::mark_lost(NodeKey node, PacketId id) {
  auto& ids = lost_[static_cast<std::size_t>(node)];
  const auto at = std::ranges::lower_bound(ids, id);
  if (at == ids.end() || *at != id) ids.insert(at, id);
}

void StreamingCodePolicy::record_use(Link& link, const Tx& tx, bool parity) {
  const UseIndex idx = link.next_index++;
  link.uses.push_back(Use{.tx = tx, .parity = parity});
  ++pending_uses_;
  if (parity) {
    link.pending_parity.push_back(InFlight{.id = tx.packet, .index = idx});
    return;
  }
  const auto it =
      std::ranges::find(link.pending_data, tx.packet, &InFlight::id);
  if (it == link.pending_data.end()) {
    link.pending_data.push_back(InFlight{.id = tx.packet, .index = idx});
  } else {
    it->index = idx;
  }
  link.credit += static_cast<std::int64_t>(max_burst_);
}

void StreamingCodePolicy::on_data_emitted(RecoveryHost& host, Slot /*t*/,
                                          const Tx& tx) {
  Link& link = code_links_.get(tx.from, tx.to);
  if (options().dense_links) detect_skips(host, link, tx);
  record_use(link, tx, /*parity=*/false);
}

void StreamingCodePolicy::detect_skips(RecoveryHost& host, Link& link,
                                       const Tx& tx) {
  // On a dense link the inner schedule advances one id per emission; a jump
  // means the ids in between were lost upstream before this link ever
  // carried them. Queue them for forwarding once the sender holds them.
  if (tx.packet > link.last_data + 1) {
    const PacketId lo =
        std::max(link.last_data + 1, tx.packet - kMaxSkipRange);
    for (PacketId g = lo; g < tx.packet; ++g) {
      if (host.has_arrived(tx.to, g)) continue;
      if (host.in_flight(tx.to, g)) continue;
      const auto at =
          std::ranges::lower_bound(link.skipped, g, {}, &Skipped::id);
      if (at == link.skipped.end() || at->id != g) {
        link.skipped.insert(at, Skipped{.id = g, .tag = tx.tag});
      }
    }
  }
  link.last_data = std::max(link.last_data, tx.packet);
}

void StreamingCodePolicy::forward_skipped(
    RecoveryHost& host, Slot t, NodeKey from, NodeKey to, Link& link,
    // lint: allow(hot-path-alloc) — the slot's output list
    std::vector<Tx>& out) {
  auto& skipped = link.skipped;
  std::size_t kept = 0;
  std::size_t next = 0;
  for (; next < skipped.size(); ++next) {
    const Skipped s = skipped[next];
    if (host.has_arrived(to, s.id) || lost(to, s.id)) continue;
    if (lost(from, s.id)) {
      // The upstream hop gave this id up: the sender will never hold it,
      // so no data use can ever carry it here. Cascade the abandonment.
      mark_lost(to, s.id);
      host.abandon_gap(t, to, s.id);
      continue;
    }
    if (host.in_flight(to, s.id) || !host.holds(from, s.id)) {
      skipped[kept++] = s;  // still undecided upstream, or already on its way
      continue;
    }
    if (!host.send_available(from) ||
        !host.recv_headroom(t + host.link_latency(from, to) - 1, to)) {
      break;  // out of capacity this slot; the queue carries over
    }
    const Tx fwd{
        .from = from, .to = to, .packet = s.id, .tag = s.tag,
        .retransmit = true};
    record_use(link, fwd, /*parity=*/false);
    out.push_back(fwd);
    ++host.stats().retransmissions;
    host.use_send(from);
    host.note_planned_arrival(t + host.link_latency(from, to) - 1, to);
    host.set_in_flight(to, s.id, true);
  }
  skipped.erase(skipped.begin() + static_cast<std::ptrdiff_t>(kept),
                skipped.begin() + static_cast<std::ptrdiff_t>(next));
}

bool StreamingCodePolicy::emit_parity_use(
    RecoveryHost& host, Slot t, NodeKey from, NodeKey to, Link& link,
    // lint: allow(hot-path-alloc) — the slot's output list
    std::vector<Tx>& out) {
  if (!host.send_available(from) ||
      !host.recv_headroom(t + host.link_latency(from, to) - 1, to)) {
    return false;  // blocked on capacity; the credit carries over
  }
  const Tx parity{.from = from, .to = to, .packet = next_code_id_++, .tag = -1};
  record_use(link, parity, /*parity=*/true);
  out.push_back(parity);
  host.use_send(from);
  host.note_planned_arrival(t + host.link_latency(from, to) - 1, to);
  ++host.stats().parity_transmissions;
  return true;
}

void StreamingCodePolicy::emit(
    RecoveryHost& host, Slot t,
    // lint: allow(hot-path-alloc) — the slot's output list
    std::vector<Tx>& out) {
  for (const std::uint32_t slot : code_links_.order()) {
    const auto [from, to] = code_links_.link(slot);
    Link& link = code_links_.at_slot(slot);
    // Relay forwarding: re-inject ids the dense schedule skipped past, as
    // regular parity-protected data uses.
    if (!link.skipped.empty()) forward_skipped(host, t, from, to, link, out);
    // Cadence parity: one parity use per T credit (B credit per data use),
    // i.e. the code's B:T parity:data ratio.
    while (link.credit >= static_cast<std::int64_t>(decode_delay_)) {
      if (!emit_parity_use(host, t, from, to, link, out)) break;
      link.credit -= static_cast<std::int64_t>(decode_delay_);
    }
    // Window flush: an undecided erasure at index i needs the link's index
    // stream to reach i + T before its fate is known. Once the data
    // schedule goes quiet (end of stream, drain), keep the stream moving
    // with extra parity uses until every open window is full.
    if (!link.open.empty() &&
        link.next_index <= link.open.back() + decode_delay_) {
      emit_parity_use(host, t, from, to, link, out);
    }
  }
}

void StreamingCodePolicy::note_erasure_run(RecoveryHost& host, Link& link,
                                           UseIndex idx) {
  UseIndex s = idx;
  while (true) {
    const Use* use = find_use(link, s - 1);
    if (use == nullptr || use->state != UseState::kErased) break;
    --s;
  }
  UseIndex e = idx;
  while (true) {
    const Use* use = find_use(link, e + 1);
    if (use == nullptr || use->state != UseState::kErased) break;
    ++e;
  }
  host.stats().max_erasure_run =
      std::max(host.stats().max_erasure_run, e - s + 1);
}

void StreamingCodePolicy::finalize_data_use(RecoveryHost& host, Slot t,
                                            const Tx& tx, UseState state) {
  Link* link = code_links_.find(tx.from, tx.to);
  if (link == nullptr) return;
  const auto in_flight =
      std::ranges::find(link->pending_data, tx.packet, &InFlight::id);
  if (in_flight == link->pending_data.end()) return;
  const UseIndex idx = in_flight->index;
  link->pending_data.erase(in_flight);
  use_at(*link, idx).state = state;
  --pending_uses_;
  if (state == UseState::kErased) {
    link->open.insert(std::ranges::upper_bound(link->open, idx), idx);
    ++undecided_;
    note_erasure_run(host, *link, idx);
  } else {
    // A later transmission of the same packet got through: any open erased
    // use of it on this link is naturally repaired and needs no decode.
    std::erase_if(link->open, [&](UseIndex open) {
      Use& prior = use_at(*link, open);
      if (prior.decided || prior.tx.packet != tx.packet) return false;
      prior.decided = true;
      --undecided_;
      return true;
    });
  }
  settle(host, t, *link);
}

bool StreamingCodePolicy::finalize_parity_use(Link& link, PacketId id,
                                              UseIndex* idx) {
  const auto in_flight =
      std::ranges::find(link.pending_parity, id, &InFlight::id);
  if (in_flight == link.pending_parity.end()) return false;
  *idx = in_flight->index;
  link.pending_parity.erase(in_flight);
  --pending_uses_;
  return true;
}

void StreamingCodePolicy::on_data_arrival(RecoveryHost& host, Slot t,
                                          const Tx& tx) {
  finalize_data_use(host, t, tx, UseState::kArrived);
}

void StreamingCodePolicy::on_data_drop(RecoveryHost& host,
                                       const sim::Drop& d) {
  finalize_data_use(host, d.would_arrive, d.tx, UseState::kErased);
}

void StreamingCodePolicy::on_control_arrival(RecoveryHost& host, Slot t,
                                             const Tx& tx) {
  Link* link = code_links_.find(tx.from, tx.to);
  UseIndex idx = 0;
  if (link == nullptr || !finalize_parity_use(*link, tx.packet, &idx)) return;
  use_at(*link, idx).state = UseState::kArrived;
  settle(host, t, *link);
}

void StreamingCodePolicy::on_control_drop(RecoveryHost& host,
                                          const sim::Drop& d) {
  Link* link = code_links_.find(d.tx.from, d.tx.to);
  UseIndex idx = 0;
  if (link == nullptr || !finalize_parity_use(*link, d.tx.packet, &idx)) {
    return;
  }
  // An erased parity use carries no stream gap of its own, but it extends
  // the channel's erasure run and can collide with an open decode window.
  Use& use = use_at(*link, idx);
  use.state = UseState::kErased;
  use.decided = true;
  note_erasure_run(host, *link, idx);
  settle(host, d.would_arrive, *link);
}

void StreamingCodePolicy::decide(Link& link, UseIndex idx) {
  Use& use = use_at(link, idx);
  if (use.decided) return;
  use.decided = true;
  if (!use.parity) --undecided_;  // settle() drops it from `open`
}

void StreamingCodePolicy::settle(RecoveryHost& host, Slot t, Link& link) {
  // Decisions below only mark uses decided (and never add an open
  // erasure), so the ascending walk over `open` sees exactly the entries a
  // snapshot taken here would; decided ones are dropped at the end.
  for (std::size_t i = 0; i < link.open.size(); ++i) {
    const UseIndex idx = link.open[i];
    if (use_at(link, idx).decided) continue;  // decided by an earlier run
    // The maximal erasure run [s, e] containing idx. Channel uses finalize
    // in index order per link, so everything inside is final.
    UseIndex s = idx;
    while (true) {
      const Use* use = find_use(link, s - 1);
      if (use == nullptr || use->state != UseState::kErased) break;
      --s;
    }
    UseIndex e = idx;
    while (true) {
      const Use* use = find_use(link, e + 1);
      if (use == nullptr || use->state != UseState::kErased) break;
      ++e;
    }

    const auto declare_unrecoverable = [&](UseIndex lo, UseIndex hi) {
      for (UseIndex j = lo; j <= hi; ++j) {
        const Use* found = find_use(link, j);
        if (found == nullptr) continue;
        if (found->state != UseState::kErased || found->decided) continue;
        if (!found->parity) {
          ++host.stats().unrecoverable;
          const Tx gap = found->tx;
          if (!host.has_arrived(gap.to, gap.packet)) {
            mark_lost(gap.to, gap.packet);
            host.abandon_gap(t, gap.to, gap.packet);
          }
        }
        decide(link, j);
      }
    };

    if (e - s + 1 > static_cast<UseIndex>(max_burst_)) {
      // Burst longer than B: beyond the code's correction capability.
      declare_unrecoverable(s, e);
      continue;
    }

    // Decode window for position idx: every channel use in (e, idx + T]
    // must have arrived. A second erasure inside it is a guard-space
    // collision; a pending or not-yet-emitted use leaves the decision open.
    bool wait = false;
    bool collision = false;
    for (UseIndex k = e + 1; k <= idx + static_cast<UseIndex>(decode_delay_);
         ++k) {
      const Use* use = find_use(link, k);
      if (use == nullptr || use->state == UseState::kPending) {
        wait = true;
        break;
      }
      if (use->state == UseState::kErased) {
        collision = true;
        break;
      }
    }
    if (collision) {
      ++host.stats().guard_collisions;
      declare_unrecoverable(s, e);
      continue;
    }
    if (wait) continue;

    // All of (e, idx + T] arrived: the BLK code recovers position idx.
    const Tx decoded = use_at(link, idx).tx;
    if (!host.has_arrived(decoded.to, decoded.packet)) {
      ++host.stats().fec_decodes;
      host.ingest_decoded(t, decoded);
    }
    decide(link, idx);
  }
  std::erase_if(link.open,
                [&](UseIndex idx) { return use_at(link, idx).decided; });
  prune(link);
}

void StreamingCodePolicy::prune(Link& link) {
  // Later reads start at the oldest open erasure or use on the wire (or at
  // the next use) and walk back only across erased uses.
  UseIndex keep = link.next_index;
  if (!link.open.empty()) keep = std::min(keep, link.open.front());
  for (const InFlight& use : link.pending_data) {
    keep = std::min(keep, use.index);
  }
  for (const InFlight& use : link.pending_parity) {
    keep = std::min(keep, use.index);
  }
  while (keep > link.first &&
         use_at(link, keep - 1).state == UseState::kErased) {
    --keep;
  }
  if (keep - link.first < kPruneBatch) return;
  link.uses.erase(link.uses.begin(),
                  link.uses.begin() +
                      static_cast<std::ptrdiff_t>(keep - link.first));
  link.first = keep;
}

}  // namespace streamcast::policy
