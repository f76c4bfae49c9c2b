#include "src/scheme/registry.hpp"

#include <stdexcept>
#include <string>
#include <string_view>

#include "src/baseline/chain.hpp"
#include "src/baseline/single_tree.hpp"
#include "src/dyntree/forest.hpp"
#include "src/dyntree/protocol.hpp"
#include "src/hypercube/analysis.hpp"
#include "src/hypercube/protocol.hpp"
#include "src/loss/model.hpp"
#include "src/multitree/analysis.hpp"
#include "src/multitree/greedy.hpp"
#include "src/multitree/protocol.hpp"
#include "src/multitree/structured.hpp"
#include "src/rrd/digraph.hpp"
#include "src/rrd/protocol.hpp"
#include "src/supertree/analysis.hpp"

namespace streamcast::scheme {

namespace {

// --- multi-tree (§2.2) -----------------------------------------------------

Overlay build_multitree(const SessionConfig& config) {
  const core::NodeKey n = config.n;
  const int d = config.d;
  Overlay o;
  o.window = config.window;
  o.forest = std::make_unique<multitree::Forest>(
      config.scheme == Scheme::kMultiTreeGreedy
          ? multitree::build_greedy(n, d)
          : multitree::build_structured(n, d));
  if (o.window == 0) o.window = 2 * d * (o.forest->height() + 2);
  o.topology = std::make_unique<net::UniformCluster>(n, d);
  auto proto =
      std::make_unique<multitree::MultiTreeProtocol>(*o.forest, config.mode);
  // On lossy links a forward must wait for the actual (possibly repaired)
  // receipt, so the replayed deterministic schedule is unsound; keep the
  // cursor pump, which advances only on delivery.
  if (config.loss.model != loss::ErasureKind::kNone) {
    proto->use_periodic_cache(false);
  }
  o.protocol = std::move(proto);
  o.slack += multitree::worst_delay_bound(n, d) + 3 * d;
  return o;
}

Envelope envelope_multitree(const SessionConfig& config) {
  // Theorem 2's h*d delay/buffer; live modes shift the schedule by up to d.
  Envelope e;
  e.delay = multitree::worst_delay_bound(config.n, config.d);
  e.buffer = e.delay;
  if (config.mode != multitree::StreamMode::kPreRecorded) {
    e.delay += config.d;
    e.buffer += config.d;
  }
  return e;
}

Slot multicluster_bound_multitree(const SessionConfig& config) {
  return supertree::structural_bound(config.clusters, config.big_d,
                                     config.t_c, 1, config.d, config.n);
}

// --- hypercube (§3) --------------------------------------------------------

Overlay build_hypercube(const SessionConfig& config) {
  const core::NodeKey n = config.n;
  Overlay o;
  o.window = config.window;
  if (o.window == 0) o.window = 2 * hypercube::worst_delay(n) + 8;
  o.topology = std::make_unique<net::UniformCluster>(n, 1);
  o.protocol = std::make_unique<hypercube::HypercubeProtocol>(
      std::vector<std::vector<hypercube::Segment>>{
          hypercube::decompose_chain(n)});
  o.slack += hypercube::worst_delay(n);
  return o;
}

Envelope envelope_hypercube(const SessionConfig& config) {
  // Propositions 1-2: O(1) buffers, measured <= 3 on every grid.
  return {hypercube::worst_delay(config.n), 3};
}

Slot multicluster_bound_hypercube(const SessionConfig& config) {
  return supertree::structural_bound_hypercube(config.clusters, config.big_d,
                                               config.t_c, 1, config.n);
}

Overlay build_hypercube_grouped(const SessionConfig& config) {
  const core::NodeKey n = config.n;
  const int d = config.d;
  Overlay o;
  o.window = config.window;
  if (o.window == 0) o.window = 2 * hypercube::worst_delay_grouped(n, d) + 8;
  o.topology = std::make_unique<net::UniformCluster>(n, d);
  std::vector<std::vector<hypercube::Segment>> chains;
  for (auto& g : hypercube::decompose_grouped(n, d)) {
    chains.push_back(std::move(g.chain));
  }
  o.protocol =
      std::make_unique<hypercube::HypercubeProtocol>(std::move(chains));
  o.slack += hypercube::worst_delay_grouped(n, d);
  return o;
}

Envelope envelope_hypercube_grouped(const SessionConfig& config) {
  return {hypercube::worst_delay_grouped(config.n, config.d), 3};
}

// --- baselines (§1) --------------------------------------------------------

Overlay build_chain(const SessionConfig& config) {
  Overlay o;
  o.window = config.window;
  if (o.window == 0) o.window = 8;
  o.topology = std::make_unique<net::UniformCluster>(config.n, 1);
  o.protocol = std::make_unique<baseline::ChainProtocol>(config.n);
  o.slack += config.n;
  return o;
}

Envelope envelope_chain(const SessionConfig& config) {
  // Perfectly paced: play each packet the slot it arrives.
  return {baseline::chain_worst_delay(config.n), 1};
}

Overlay build_single_tree(const SessionConfig& config) {
  Overlay o;
  o.window = config.window;
  if (o.window == 0) o.window = 8;
  o.topology = std::make_unique<baseline::BoostedCluster>(config.n, config.d);
  o.protocol =
      std::make_unique<baseline::SingleTreeProtocol>(config.n, config.d);
  o.slack += baseline::single_tree_worst_delay(config.n, config.d) + 2;
  return o;
}

Envelope envelope_single_tree(const SessionConfig& config) {
  const Slot delay = baseline::single_tree_worst_delay(config.n, config.d);
  return {delay, delay};
}

// --- random regular digraph (related work: 1308.6807) ----------------------

Overlay build_random_regular(const SessionConfig& config) {
  Overlay o;
  o.window = config.window;
  const Slot bound = rrd::delay_bound(config.n, config.d);
  if (o.window == 0) o.window = 2 * bound + 16;
  // Kim–Srikant regime: in-degree d (download capacity d), upload a
  // constant factor above the stream rate — see RandomRegularProtocol on
  // why rate 1 against upload 1 (their eps = 0 boundary) cannot work.
  o.topology = std::make_unique<net::UniformCluster>(config.n, config.d, 1,
                                                     config.d, 2);
  o.protocol = std::make_unique<rrd::RandomRegularProtocol>(
      rrd::build_digraph(config.n, config.d, config.seed), 2);
  o.slack += bound + config.d;
  return o;
}

Envelope envelope_random_regular(const SessionConfig& config) {
  const Slot delay = rrd::delay_bound(config.n, config.d);
  // Rate-1 playback from the delay bound caps occupancy at delay + 1.
  return {delay, delay + 1};
}

// --- dynamic trees (related work: 1308.1971) --------------------------------

dyntree::DynamicForest static_dyntree_forest(const SessionConfig& config) {
  // The registry's static instance: n joins, then one rebalance sweep —
  // deterministic in (n, d, seed), so build and envelope reconstruct the
  // identical forest (same PRNG draw sequence).
  dyntree::DynamicForest forest(config.d, config.seed);
  for (core::NodeKey i = 0; i < config.n; ++i) forest.join();
  forest.rebalance();
  return forest;
}

Overlay build_dynamic_trees(const SessionConfig& config) {
  Overlay o;
  o.window = config.window;
  auto forest = static_dyntree_forest(config);
  const Slot bound = dyntree::schedule_bound(forest) + 2 * config.d;
  if (o.window == 0) o.window = 2 * bound + 16;
  o.topology =
      std::make_unique<net::UniformCluster>(config.n, config.d, 1, config.d);
  o.protocol =
      std::make_unique<dyntree::DynamicTreesProtocol>(std::move(forest));
  o.slack += bound + config.d;
  return o;
}

Envelope envelope_dynamic_trees(const SessionConfig& config) {
  const auto forest = static_dyntree_forest(config);
  // Structure-derived schedule bound plus the empirical round-robin margin
  // (DESIGN.md §12); buffers as for random-regular.
  const Slot delay = dyntree::schedule_bound(forest) + 2 * config.d;
  return {delay, delay + 1};
}

// --- the registry ----------------------------------------------------------

constexpr Capabilities kMultiTreeCaps{.live_modes = true,
                                      .degree_sweep = true,
                                      .closed_form_replay = true};

const Descriptor kRegistry[] = {
    {.id = Scheme::kMultiTreeStructured,
     .name = "multi-tree/structured",
     .caps = kMultiTreeCaps,
     .build = build_multitree,
     .envelope = envelope_multitree},
    {.id = Scheme::kMultiTreeGreedy,
     .name = "multi-tree/greedy",
     .caps = {.live_modes = true, .multicluster = true, .degree_sweep = true},
     .build = build_multitree,
     .envelope = envelope_multitree,
     .intra = supertree::IntraScheme::kMultiTree,
     .multicluster_bound = multicluster_bound_multitree},
    {.id = Scheme::kHypercube,
     .name = "hypercube",
     .caps = {.multicluster = true,
              .demand_driven = true,
              .bounded_recovery_policies = false},
     .build = build_hypercube,
     .envelope = envelope_hypercube,
     .intra = supertree::IntraScheme::kHypercube,
     .multicluster_bound = multicluster_bound_hypercube},
    {.id = Scheme::kHypercubeGrouped,
     .name = "hypercube/grouped",
     .caps = {.demand_driven = true,
              .degree_sweep = true,
              .bounded_recovery_policies = false},
     .build = build_hypercube_grouped,
     .envelope = envelope_hypercube_grouped},
    {.id = Scheme::kChain,
     .name = "chain",
     .caps = {.dense_links = true},
     .build = build_chain,
     .envelope = envelope_chain},
    {.id = Scheme::kSingleTree,
     .name = "single-tree",
     .caps = {.dense_links = true, .degree_sweep = true},
     .build = build_single_tree,
     .envelope = envelope_single_tree},
    {.id = Scheme::kRandomRegular,
     .name = "random-regular",
     .caps = {.degree_sweep = true},
     .build = build_random_regular,
     .envelope = envelope_random_regular},
    {.id = Scheme::kDynamicTrees,
     .name = "dynamic-trees",
     .caps = {.degree_sweep = true, .churn = true, .churn_backfill = true},
     .build = build_dynamic_trees,
     .envelope = envelope_dynamic_trees},
};

}  // namespace

std::span<const Descriptor> all() { return kRegistry; }

const Descriptor& descriptor(Scheme s) {
  for (const Descriptor& d : kRegistry) {
    if (d.id == s) return d;
  }
  throw std::invalid_argument("unregistered scheme");
}

audit::AuditOptions audit_envelope(const SessionConfig& config,
                                   PacketId window) {
  const Envelope e = descriptor(config.scheme).envelope(config);
  audit::AuditOptions o;
  o.window = window;
  o.buffer_bound = e.buffer;
  if (config.loss.model != loss::ErasureKind::kNone) {
    // Repairs may legitimately exceed the deterministic delay bound; the
    // buffer check keeps running with gap-backlog slack, and window
    // completeness is accounted in LossSummary instead of violated.
    o.delay_bound = -1;
    o.gap_backlog_slack = true;
    o.require_complete = false;
  } else {
    o.delay_bound = e.delay;
    o.require_complete = true;
  }
  return o;
}

}  // namespace streamcast::scheme

namespace streamcast::core {

const char* scheme_name(Scheme s) { return scheme::descriptor(s).name; }

Scheme parse_scheme(std::string_view name) {
  for (const scheme::Descriptor& d : scheme::all()) {
    if (name == d.name) return d.id;
  }
  throw std::invalid_argument("unknown scheme name: " + std::string(name));
}

std::string scheme_label(Scheme s, int clusters) {
  std::string label = scheme_name(s);
  if (clusters > 1) {
    label += " x" + std::to_string(clusters) + " clusters";
  }
  return label;
}

}  // namespace streamcast::core
