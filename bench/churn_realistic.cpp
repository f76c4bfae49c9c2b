// Appendix churn under a *realistic* workload: Poisson arrivals with
// exponential session lifetimes (the P2P measurement-study standard),
// streamed live through the dynamic protocol. Replicated over 5 seeds per
// cell; reports mean +- sd of maintenance moves and playback hiccups.
//
// Three competitors per cell: the structural-id multi-tree under eager and
// lazy maintenance, and the Zhu-Hajek dynamic forest (scheme #8,
// "adaptive"), whose local join/leave/swap rules never relabel — churn
// costs re-parent moves and promote swaps instead of relabels/rebuilds.
#include <cmath>
#include <iostream>

#include "bench/bench_util.hpp"
#include "src/dyntree/protocol.hpp"
#include "src/metrics/playback.hpp"
#include "src/metrics/summary.hpp"
#include "src/multitree/analysis.hpp"
#include "src/multitree/churn.hpp"
#include "src/multitree/dynamic.hpp"
#include "src/net/topology.hpp"
#include "src/sim/engine.hpp"
#include "src/util/table.hpp"
#include "src/workload/churn_trace.hpp"

namespace {

using namespace streamcast;
using namespace streamcast::multitree;

struct Outcome {
  double moves = 0;
  double hiccups = 0;
  double loss_rate = 0;
  sim::NodeKey final_n = 0;
};

Outcome run_trace(const workload::TraceConfig& cfg, int d,
                  ChurnPolicy policy) {
  const auto trace = workload::generate_churn_trace(cfg);
  // Capacity bound: initial + all arrivals.
  NodeKey capacity = cfg.initial_n;
  for (const auto& e : trace) capacity += e.arrival ? 1 : 0;
  capacity = std::max<NodeKey>(capacity + 1, 8);

  ChurnForest churn(cfg.initial_n, d, policy);
  DynamicMultiTreeProtocol proto(churn);
  net::UniformCluster topo(capacity, d);
  // Per-id duplicate tracking is not meaningful under churn: a shrink+grow
  // resets a structural id's state, so an "old" packet may legitimately be
  // re-delivered to the id's new occupant (the per-peer tracker counts
  // those as late_or_duplicate). Capacity checks stay on.
  sim::Engine engine(topo, proto,
                     sim::EngineOptions{.forbid_duplicates = false});
  const sim::Slot margin = worst_delay_bound(capacity, d) + 2 * d;
  metrics::PeerPlaybackTracker tracker(
      [&churn](NodeKey id) { return churn.peer_at(id); }, margin);
  engine.add_observer(tracker);

  // Map trace peer labels -> live ChurnForest peers.
  std::map<std::int64_t, PeerId> live;
  for (NodeKey id = 1; id <= cfg.initial_n; ++id) {
    live[id - 1] = churn.peer_at(id);
    tracker.peer_seated(churn.peer_at(id), 0, proto.live_edge());
  }
  for (const auto& e : trace) {
    engine.run_until(e.slot);
    if (e.arrival) {
      const PeerId p = churn.add();
      live[e.peer] = p;
      tracker.peer_seated(p, e.slot, proto.live_edge());
      proto.resync(e.slot);
    } else {
      const auto it = live.find(e.peer);
      if (it == live.end()) continue;
      if (churn.n() <= 2) continue;  // keep the overlay alive
      tracker.peer_left(it->second, e.slot);
      churn.remove(it->second);
      live.erase(it);
      proto.resync(e.slot);
    }
  }
  const sim::Slot end = cfg.horizon + margin + 100;
  engine.run_until(end);
  tracker.finish(end);

  Outcome o;
  o.moves = static_cast<double>(churn.stats().total_moves());
  o.hiccups = static_cast<double>(tracker.total_hiccups());
  const double played = static_cast<double>(tracker.total_played());
  o.loss_rate = o.hiccups / std::max(1.0, played + o.hiccups);
  o.final_n = churn.n();
  return o;
}

/// Same trace, streamed through the dynamic-trees scheme. Maintenance cost
/// = reattaches + promote swaps + rebalance moves (the forest never
/// relabels); hiccups from the same PlaybackBuffer accounting, seated at
/// the live edge. The engine gets capacity for every key the run will ever
/// grant (keys are permanent and never reused).
///
/// With `backfill` the scheme exercises its churn_backfill capability
/// (scheme registry): the NACK recovery policy wraps the protocol as a
/// repair channel, its aged-gap sweep NACKing from the source any receive
/// gap older than the startup margin. That is exactly the displacement
/// window a re-parented subtree skips under the live-edge rule, so the
/// moved peers get their history back instead of paying permanent hiccups.
/// Joiners are seated at the live edge (no pre-join debt) and departed
/// keys are retired past the stream end so the sweep never repairs ghosts.
Outcome run_trace_dyntree(const workload::TraceConfig& cfg, int d,
                          bool backfill) {
  const auto trace = workload::generate_churn_trace(cfg);
  NodeKey capacity = cfg.initial_n;
  for (const auto& e : trace) capacity += e.arrival ? 1 : 0;
  capacity = std::max<NodeKey>(capacity + 1, 8);

  dyntree::DynamicTreesProtocol proto(
      dyntree::DynamicForest(d, cfg.seed * 31 + 7));
  net::UniformCluster topo(capacity, d, 1, d);
  const sim::Slot margin = worst_delay_bound(capacity, d) + 2 * d;
  const sim::Slot end = cfg.horizon + margin + 100;

  loss::RecoveryOptions ropts;
  ropts.policy = "nack";
  // The sweep may only fire on gaps no natural delivery will ever fill, so
  // the timeout must exceed the forest's inter-substream arrival skew
  // (depth spread plus queueing, a few multiples of d) — but it must stay
  // well under the playback margin, or every backfilled packet lands after
  // its due slot and repairs only add congestion.
  ropts.gap_timeout = 4 * d + 4;
  // Tags partition the dyntree stream by tree; repairs must carry a tag no
  // live delivery uses (the trees are 0..d-1, parity would be -1) so a
  // pending backfill never holds the live substreams back.
  ropts.sweep_tag = -2;
  // A gap older than the playback margin is past its due slot at every
  // peer: abandon it instead of flooding the overlay with useless repairs.
  ropts.repair_horizon = margin;
  loss::RecoveryProtocol recovery(topo, proto, ropts);
  sim::Protocol& top = backfill ? static_cast<sim::Protocol&>(recovery)
                                : static_cast<sim::Protocol&>(proto);
  sim::Engine engine(topo, top);
  // Keys are permanent and never reused, so each key is its own peer.
  metrics::PeerPlaybackTracker tracker([](NodeKey key) { return key; },
                                       margin);
  if (backfill) {
    engine.add_observer(recovery);
    recovery.add_observer(tracker);  // post-repair stream
  } else {
    engine.add_observer(tracker);
  }

  std::map<std::int64_t, NodeKey> live;
  for (NodeKey i = 0; i < cfg.initial_n; ++i) {
    const NodeKey key = proto.join();
    live[i] = key;
    tracker.peer_seated(key, 0, proto.live_edge(0));
  }
  proto.forest().rebalance();
  for (const auto& e : trace) {
    engine.run_until(e.slot);
    if (e.arrival) {
      const NodeKey key = proto.join();
      live[e.peer] = key;
      tracker.peer_seated(key, e.slot, proto.live_edge(e.slot));
      if (backfill) recovery.seat(key, proto.live_edge(e.slot));
    } else {
      const auto it = live.find(e.peer);
      if (it == live.end()) continue;
      if (proto.forest().peers() <= 2) continue;  // keep the overlay alive
      tracker.peer_left(it->second, e.slot);
      proto.leave(it->second);
      if (backfill) recovery.seat(it->second, end + 1);
      live.erase(it);
    }
    proto.forest().rebalance();
  }
  engine.run_until(end);
  tracker.finish(end);

  Outcome o;
  const auto& stats = proto.forest().stats();
  o.moves = static_cast<double>(stats.reattach_moves + stats.promote_swaps +
                                stats.balance_moves);
  o.hiccups = static_cast<double>(tracker.total_hiccups());
  const double played = static_cast<double>(tracker.total_played());
  o.loss_rate = o.hiccups / std::max(1.0, played + o.hiccups);
  o.final_n = proto.forest().peers();
  return o;
}

std::string mean_sd(const std::vector<double>& v) {
  double mean = 0;
  for (const double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  double var = 0;
  for (const double x : v) var += (x - mean) * (x - mean);
  var /= static_cast<double>(v.size());
  return util::cell(mean, 1) + " +- " + util::cell(std::sqrt(var), 1);
}

}  // namespace

int main() {
  bench::banner("Appendix churn, realistic workload",
                "Poisson arrivals / exponential lifetimes, live stream, "
                "5 seeds per cell");

  util::Table table({"N0", "d", "lifetime", "policy", "moves",
                     "hiccups", "loss rate (mean)"});
  bool ok = true;
  std::vector<std::string> shrink_lines;
  for (const int d : {2, 3}) {
    for (const double lifetime : {200.0, 800.0}) {
      // -1 = the dynamic-trees forest, -2 = the same forest with the NACK
      // backfill channel; 0/1 = eager/lazy structural-id trees.
      double lazy_loss = 0;
      double adaptive_loss = 0;
      double backfill_loss = 0;
      for (const int competitor : {0, 1, -1, -2}) {
        std::vector<double> moves;
        std::vector<double> hiccups;
        double loss = 0;
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
          const workload::TraceConfig cfg{.arrival_rate = 0.05,
                                          .mean_lifetime = lifetime,
                                          .horizon = 1500,
                                          .initial_n = 60,
                                          .seed = seed * 17};
          const Outcome o =
              competitor < 0
                  ? run_trace_dyntree(cfg, d, competitor == -2)
                  : run_trace(cfg, d,
                              competitor == 0 ? ChurnPolicy::kEager
                                              : ChurnPolicy::kLazy);
          moves.push_back(o.moves);
          hiccups.push_back(o.hiccups);
          loss += o.loss_rate;
        }
        const double mean_loss = loss / 5.0;
        if (competitor == 1) lazy_loss = mean_loss;
        if (competitor == -1) adaptive_loss = mean_loss;
        if (competitor == -2) backfill_loss = mean_loss;
        table.add_row({"60", util::cell(d), util::cell(lifetime, 0),
                       competitor == -2  ? "adaptive+backfill"
                       : competitor == -1 ? "adaptive"
                       : competitor == 0  ? "eager"
                                          : "lazy",
                       mean_sd(moves), mean_sd(hiccups),
                       util::cell(loss / 5.0, 4)});
      }
      // The E35 playback-loss gap: how far the adaptive forest's loss sits
      // above the lazy relabeling tree, and how much of that gap the
      // backfill channel closes.
      const double gap = adaptive_loss - lazy_loss;
      const double left = backfill_loss - lazy_loss;
      const double shrink = gap > 0 ? (gap - left) / gap * 100.0 : 0.0;
      shrink_lines.push_back("d=" + util::cell(d) +
                             " lifetime=" + util::cell(lifetime, 0) +
                             ": gap " + util::cell(gap, 4) + " -> " +
                             util::cell(left, 4) + " (" +
                             util::cell(shrink, 1) + "% shrink)");
      if (backfill_loss >= adaptive_loss) {
        std::cerr << "FAIL: backfill did not reduce the adaptive forest's "
                     "playback loss at d="
                  << d << " lifetime=" << lifetime << " (" << backfill_loss
                  << " vs " << adaptive_loss << ")\n";
        ok = false;
      }
    }
  }
  table.print(std::cout);

  std::cout << "\nE35 playback-loss gap vs the lazy relabeling tree, "
               "before and after the NACK backfill channel:\n";
  for (const std::string& line : shrink_lines) {
    std::cout << "  " << line << "\n";
  }

  std::cout
      << "\nReading: under memoryless churn (rather than the adversarial "
         "boundary workload) the lazy policy's advantage persists — fewer "
         "restructurings, ~40-50% fewer moves, fewer lost packets. Longer "
         "lifetimes grow the swarm (arrivals outpace departures), making "
         "each boundary restructuring proportionally more expensive — "
         "maintenance cost tracks swarm size times event rate. Loss stays "
         "in the low percents at this aggressive event rate (one event "
         "every ~13 slots): the swap-based maintenance the paper sketches "
         "is viable for live streaming. The adaptive row is the Zhu-Hajek "
         "dynamic forest (scheme #8): never relabeling means each event "
         "touches only the seats it orphans or swaps, so it posts the "
         "fewest maintenance moves of the three. The continuity cost is "
         "real, though: a re-parented peer re-enters each substream at the "
         "live edge with no backfill (DESIGN.md §12), so every upward move "
         "permanently skips the displacement window for the whole moved "
         "subtree — playback loss lands an order of magnitude above the "
         "relabeling trees and grows with session lifetime (larger swarms, "
         "deeper subtrees, wider windows). The relabeling trees resync "
         "through the session protocol; matching them would take a "
         "repair/backfill channel on top of the live-edge rule — which is "
         "what the adaptive+backfill row adds: the scheme's churn_backfill "
         "capability wraps the forest in the NACK recovery policy, whose "
         "aged-gap sweep backfills each moved subtree's displacement window "
         "from the source, closing a measured share of the playback-loss "
         "gap at the cost of repair traffic.\n";
  return ok ? 0 : 1;
}
