#include "src/audit/auditor.hpp"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "src/metrics/buffers.hpp"

namespace streamcast::audit {

namespace {

std::uint64_t delivery_key(NodeKey node, PacketId packet) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 40) ^
         static_cast<std::uint64_t>(packet);
}

std::string link_detail(const sim::Tx& tx) {
  return std::to_string(tx.from) + " -> " + std::to_string(tx.to) +
         ", packet " + std::to_string(tx.packet);
}

}  // namespace

InvariantAuditor::InvariantAuditor(const net::Topology& topology,
                                   AuditOptions options)
    : topology_(topology), options_(std::move(options)) {
  if (options_.audited_nodes.empty()) {
    for (NodeKey x = 1; x < topology_.size(); ++x) {
      options_.audited_nodes.push_back(x);
    }
  }
  if (options_.window > 0) {
    arrival_.assign(static_cast<std::size_t>(topology_.size()) *
                        static_cast<std::size_t>(options_.window),
                    metrics::kNeverArrived);
    prefix_.assign(static_cast<std::size_t>(topology_.size()), 0);
  }
}

void InvariantAuditor::record(Violation v) {
  if (report_.violations.size() < kMaxViolations) {
    report_.violations.push_back(std::move(v));
  } else {
    ++report_.suppressed;
  }
}

void InvariantAuditor::advance(Slot processing_slot) {
  if (processing_slot <= cur_) return;
  cur_ = processing_slot;
  report_.slots_audited = cur_ + 1;
  // Send-slot keyed state stays live until every transmission initiated in
  // that slot has landed — bounded by the largest link latency seen (with a
  // generous floor so a late first long-haul delivery cannot hit a pruned
  // counter).
  const Slot horizon = std::max<Slot>(2 * max_latency_seen_, 64);
  const Slot keep_from = cur_ - horizon;
  while (!sends_.empty() && sends_.begin()->first < keep_from) {
    sends_.erase(sends_.begin());
  }
  while (!links_.empty() && links_.begin()->first < keep_from) {
    links_.erase(links_.begin());
  }
  // Receive counters only ever grow in the slot being processed.
  while (!recvs_.empty() && recvs_.begin()->first < cur_) {
    recvs_.erase(recvs_.begin());
  }
}

void InvariantAuditor::charge_send(Slot sent, const sim::Tx& tx) {
  if (tx.from < 0 || tx.from >= topology_.size()) return;  // engine throws
  const int cap = topology_.send_capacity(tx.from);
  const int used = ++sends_[sent][tx.from];
  if (used == cap + 1) {
    record({.kind = ViolationKind::kSendCapacity,
            .slot = sent,
            .node = tx.from,
            .expected = cap,
            .actual = used,
            .detail = link_detail(tx)});
  }
  if (!links_[sent].insert({tx.from, tx.to, tx.packet}).second) {
    record({.kind = ViolationKind::kScheduleCollision,
            .slot = sent,
            .node = tx.from,
            .expected = 1,
            .actual = 2,
            .detail = link_detail(tx)});
  }
}

std::size_t InvariantAuditor::window_index(NodeKey node,
                                           PacketId packet) const {
  return static_cast<std::size_t>(node) *
             static_cast<std::size_t>(options_.window) +
         static_cast<std::size_t>(packet);
}

void InvariantAuditor::observe_window(const sim::Delivery& d) {
  const NodeKey x = d.tx.to;
  const PacketId p = d.tx.packet;
  if (options_.window <= 0 || p < 0 || p >= options_.window) return;
  Slot& slot = arrival_[window_index(x, p)];
  if (slot == metrics::kNeverArrived) slot = d.received;
  PacketId& prefix = prefix_[static_cast<std::size_t>(x)];
  while (prefix < options_.window &&
         arrival_[window_index(x, prefix)] != metrics::kNeverArrived) {
    ++prefix;
  }
}

void InvariantAuditor::on_deliveries(
    std::span<const sim::Delivery> arrivals) {
  for (const sim::Delivery& d : arrivals) observe(d);
}

void InvariantAuditor::observe(const sim::Delivery& d) {
  ++report_.deliveries_audited;
  advance(d.received);
  max_latency_seen_ = std::max(max_latency_seen_, d.received - d.sent + 1);
  charge_send(d.sent, d.tx);

  const sim::Tx& tx = d.tx;
  if (tx.to < 0 || tx.to >= topology_.size()) return;  // engine throws

  const Slot latency = topology_.latency(tx.from, tx.to);
  const Slot took = d.received - d.sent + 1;
  if (took != latency) {
    record({.kind = ViolationKind::kLatencyMismatch,
            .slot = d.received,
            .node = tx.to,
            .expected = latency,
            .actual = took,
            .detail = link_detail(tx)});
  }

  const int cap = topology_.recv_capacity(tx.to);
  const int used = ++recvs_[d.received][tx.to];
  if (used == cap + 1) {
    record({.kind = ViolationKind::kRecvCapacity,
            .slot = d.received,
            .node = tx.to,
            .expected = cap,
            .actual = used,
            .detail = link_detail(tx)});
  }

  if (!delivered_.insert(delivery_key(tx.to, tx.packet)).second) {
    record({.kind = ViolationKind::kDuplicateDelivery,
            .slot = d.received,
            .node = tx.to,
            .expected = 1,
            .actual = 2,
            .detail = link_detail(tx)});
  }

  observe_window(d);
}

void InvariantAuditor::on_drop(const sim::Drop& d) {
  ++report_.drops_audited;
  advance(d.sent);
  max_latency_seen_ =
      std::max(max_latency_seen_, d.would_arrive - d.sent + 1);
  charge_send(d.sent, d.tx);
}

const AuditReport& InvariantAuditor::finalize() {
  if (finalized_ || options_.window <= 0) {
    finalized_ = true;
    return report_;
  }
  finalized_ = true;

  for (const NodeKey x : options_.audited_nodes) {
    if (x < 0 || x >= topology_.size()) continue;
    const auto base = window_index(x, 0);
    const std::span<const Slot> row(arrival_.data() + base,
                                    static_cast<std::size_t>(options_.window));
    const bool complete = prefix_[static_cast<std::size_t>(x)] ==
                          options_.window;
    if (!complete) {
      if (options_.require_complete) {
        record({.kind = ViolationKind::kIncompleteWindow,
                .slot = cur_,
                .node = x,
                .expected = options_.window,
                .actual = prefix_[static_cast<std::size_t>(x)],
                .detail = "window incomplete at end of run"});
      }
      continue;  // delay/buffer undefined without the full window
    }

    Slot a = 0;
    for (PacketId j = 0; j < options_.window; ++j) {
      a = std::max(a, row[static_cast<std::size_t>(j)] - j);
    }
    if (options_.delay_bound >= 0 && a > options_.delay_bound) {
      record({.kind = ViolationKind::kDelayBound,
              .slot = a,
              .node = x,
              .expected = options_.delay_bound,
              .actual = a,
              .detail = "playback delay exceeds claimed bound"});
    }
    if (options_.buffer_bound >= 0) {
      const auto occ = static_cast<std::int64_t>(
          metrics::max_buffer_occupancy(row, a));
      // Recovery slack (see AuditOptions::gap_backlog_slack): packets that
      // piled up behind an open gap are covered by the playback delay the
      // same gap inflicted.
      std::int64_t allowed = options_.buffer_bound;
      if (options_.gap_backlog_slack) allowed += a;
      if (occ > allowed) {
        record({.kind = ViolationKind::kBufferBound,
                .slot = cur_,
                .node = x,
                .expected = allowed,
                .actual = occ,
                .detail = "max buffer occupancy exceeds claimed bound"});
      }
    }
  }
  return report_;
}

void InvariantAuditor::require_clean() {
  const AuditReport& r = finalize();
  if (!r.ok()) throw sim::ProtocolViolation(r.to_string());
}

}  // namespace streamcast::audit
