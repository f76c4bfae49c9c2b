// streamcast: hot-path (lint: hot-path-alloc applies to this file)
#include "src/metrics/delay.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace streamcast::metrics {

DelayRecorder::DelayRecorder(NodeKey nodes, PacketId window,
                             util::BudgetLedger* ledger)
    : window_(window) {
  assert(nodes >= 1);
  assert(window >= 1);
  const auto span = static_cast<std::size_t>(nodes);
  const std::size_t cells = span * static_cast<std::size_t>(window);
  if (ledger != nullptr) {
    ledger->charge("metrics/delay-recorder",
                   cells * sizeof(std::int32_t) +
                       span * (sizeof(PacketId) + sizeof(std::int32_t)));
  }
  delta_.assign(cells, kNoDelta);
  missing_.assign(span, window);
  best_.assign(span, kNoDelta);
}

void DelayRecorder::on_deliveries(std::span<const Delivery> arrivals) {
  const std::size_t n = arrivals.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      // Only in-range cells: the address of any other would point outside
      // the matrix.
      if (const std::int32_t* ahead = cell(arrivals[i + kPrefetchAhead])) {
        __builtin_prefetch(ahead, /*rw=*/1);
      }
    }
    record(arrivals[i]);
  }
}

std::int32_t* DelayRecorder::cell(const Delivery& d) {
  if (d.tx.packet < 0 || d.tx.packet >= window_) return nullptr;
  if (d.tx.to < 0 || d.tx.to >= nodes()) return nullptr;
  return delta_.data() +
         static_cast<std::size_t>(d.tx.to) *
             static_cast<std::size_t>(window_) +
         static_cast<std::size_t>(d.tx.packet);
}

void DelayRecorder::record(const Delivery& d) {
  std::int32_t* const at = cell(d);
  if (at == nullptr || *at != kNoDelta) return;  // the first arrival stands
  const Slot delta = d.received - d.tx.packet;
  // Deltas are bounded by the horizon, far inside int32; a schedule that
  // breaks this would corrupt the encoding, so refuse loudly.
  if (delta <= kNoDelta || delta > std::numeric_limits<std::int32_t>::max()) {
    throw std::logic_error("arrival delta out of int32 range");
  }
  *at = static_cast<std::int32_t>(delta);
  const auto node = static_cast<std::size_t>(d.tx.to);
  --missing_[node];
  best_[node] = std::max(best_[node], *at);
}

// lint: allow(hot-path-alloc) — caller-owned scratch row, reused
void DelayRecorder::arrivals(NodeKey node, std::vector<Slot>& row) const {
  row.resize(static_cast<std::size_t>(window_));
  for (PacketId j = 0; j < window_; ++j) {
    row[static_cast<std::size_t>(j)] = arrival(node, j);
  }
}

std::optional<Slot> DelayRecorder::playback_delay(NodeKey node) const {
  if (!complete(node)) return std::nullopt;
  // a = max(0, max_j delta_j): playback never starts before slot 0.
  return std::max<Slot>(0, best_[static_cast<std::size_t>(node)]);
}

// lint: allow(hot-path-alloc) — aggregation-time result, once per call
std::vector<Slot> DelayRecorder::delays(NodeKey from, NodeKey to) const {
  std::vector<Slot> out;  // lint: allow(hot-path-alloc) — the result above
  out.reserve(static_cast<std::size_t>(to - from + 1));
  for (NodeKey n = from; n <= to; ++n) {
    const auto a = playback_delay(n);
    if (!a) {
      throw std::logic_error("node " + std::to_string(n) +
                             " did not receive the full packet window");
    }
    out.push_back(*a);
  }
  return out;
}

Slot DelayRecorder::worst_delay(NodeKey from, NodeKey to) const {
  const auto all = delays(from, to);
  return *std::ranges::max_element(all);
}

double DelayRecorder::average_delay(NodeKey from, NodeKey to) const {
  const auto all = delays(from, to);
  double sum = 0;
  for (const Slot a : all) sum += static_cast<double>(a);
  return sum / static_cast<double>(all.size());
}

}  // namespace streamcast::metrics
