#include "src/multitree/schedule.hpp"

#include <algorithm>
#include <cassert>

#include "src/static/lattice.hpp"

namespace streamcast::multitree {

std::vector<Slot> closed_form_delays(const Forest& forest) {
  const int d = forest.d();
  // A_k(p) is identical for every k (pure position arithmetic), so compute
  // it once and index by each node's per-tree position.
  const auto offsets = envelope::arrival_offsets(forest.n_pad(), d);
  std::vector<Slot> delay(static_cast<std::size_t>(forest.n()) + 1, 0);
  for (NodeKey x = 1; x <= forest.n(); ++x) {
    Slot a = 0;
    for (int k = 0; k < d; ++k) {
      const NodeKey pos = forest.position_of(k, x);
      a = std::max(a, offsets[static_cast<std::size_t>(pos)] - k);
    }
    delay[static_cast<std::size_t>(x)] = a;
  }
  return delay;
}

std::vector<Slot> closed_form_delays_pipelined(const Forest& forest) {
  const int d = forest.d();
  const auto offsets = envelope::arrival_offsets(forest.n_pad(), d);
  std::vector<Slot> delay(static_cast<std::size_t>(forest.n()) + 1, 0);
  for (NodeKey x = 1; x <= forest.n(); ++x) {
    Slot a = 0;
    for (int k = 0; k < d; ++k) {
      NodeKey pos = forest.position_of(k, x);
      // Level-1 ancestor: walk up until the parent is the source.
      NodeKey top = pos;
      while (forest.parent_pos(top) != 0) top = forest.parent_pos(top);
      const Slot slip = forest.child_index(top) < k ? d : 0;
      a = std::max(a, offsets[static_cast<std::size_t>(pos)] - k + slip);
    }
    delay[static_cast<std::size_t>(x)] = a;
  }
  return delay;
}

PeriodicSchedule build_periodic_schedule(const Forest& forest) {
  const int d = forest.d();
  const auto offsets = envelope::arrival_offsets(forest.n_pad(), d);
  PeriodicSchedule sched;
  sched.d = d;
  sched.residues.resize(static_cast<std::size_t>(d));
  for (int r = 0; r < d; ++r) {
    auto& entries = sched.residues[static_cast<std::size_t>(r)];
    // Source sends: one per tree per slot, to the child at index r
    // (position r+1). A_k(r+1) = r, so these entries fire from period 0.
    for (int k = 0; k < d; ++k) {
      const NodeKey child = forest.node_at(k, static_cast<NodeKey>(r) + 1);
      if (forest.is_dummy(child)) continue;
      entries.push_back(
          {.from = kSource, .to = child, .tree = k, .alpha = 0});
    }
    // Interior forwards, tree-major by position — the pump's visit order.
    for (int k = 0; k < d; ++k) {
      for (NodeKey pos = 1; pos <= forest.interior(); ++pos) {
        const NodeKey cp = forest.child_pos(pos, r);
        const NodeKey child = forest.node_at(k, cp);
        if (forest.is_dummy(child)) continue;
        const Slot a = offsets[static_cast<std::size_t>(cp)];
        assert((a - r) % d == 0);
        entries.push_back({.from = forest.node_at(k, pos),
                           .to = child,
                           .tree = k,
                           .alpha = (a - r) / d});
      }
    }
  }
  return sched;
}

Slot closed_form_worst_delay(const Forest& forest) {
  const auto d = closed_form_delays(forest);
  return *std::max_element(d.begin() + 1, d.end());
}

double closed_form_average_delay(const Forest& forest) {
  const auto d = closed_form_delays(forest);
  double sum = 0;
  for (NodeKey x = 1; x <= forest.n(); ++x) {
    sum += static_cast<double>(d[static_cast<std::size_t>(x)]);
  }
  return sum / static_cast<double>(forest.n());
}

}  // namespace streamcast::multitree
