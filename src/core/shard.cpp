#include "src/core/shard.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/multitree/analysis.hpp"
#include "src/scheme/registry.hpp"
#include "src/supertree/protocol.hpp"

namespace streamcast::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Cross-shard mailbox: phase 1 hands it every validated, non-erased
/// transmission whose destination cluster lies outside the owned range.
/// Drained single-threadedly by the barrier completion.
class Mailbox final : public sim::TxRouter {
 public:
  Mailbox(const net::ClusteredTopology& topo, int lo, int hi)
      : topo_(topo), lo_(lo), hi_(hi) {}

  bool keep(const sim::Delivery& d) override {
    const int c = topo_.cluster_of(d.tx.to);
    if (c >= lo_ && c < hi_) return true;
    outbox_.push_back(d);
    return false;
  }

  std::vector<sim::Delivery>& outbox() { return outbox_; }

 private:
  const net::ClusteredTopology& topo_;
  int lo_;
  int hi_;
  std::vector<sim::Delivery> outbox_;
};

/// Receivers owned by clusters [lo, hi), in global (cluster, local) order —
/// the same order the serial session path builds.
std::vector<NodeKey> owned_receivers(const net::ClusteredTopology& topo,
                                     int lo, int hi) {
  std::size_t total = 0;
  for (int c = lo; c < hi; ++c) {
    total += static_cast<std::size_t>(topo.cluster_receivers(c));
  }
  std::vector<NodeKey> keys;
  keys.reserve(total);
  for (int c = lo; c < hi; ++c) {
    const NodeKey n = topo.cluster_receivers(c);
    for (NodeKey x = 1; x <= n; ++x) keys.push_back(topo.receiver(c, x));
  }
  return keys;
}

/// The shard's ObserverSpec: the base spec with the audit scope narrowed to
/// the receivers of clusters [lo, hi) (their arrivals are wholly in-shard,
/// so each shard's auditor sees the complete evidence for its verdict).
ObserverSpec shard_spec(const ObserverSpec& base,
                        const net::ClusteredTopology& topo, int lo, int hi) {
  ObserverSpec spec = base;
  if (spec.audit) {
    spec.audit_options.audited_nodes = owned_receivers(topo, lo, hi);
  }
  return spec;
}

/// Everything one shard owns. Construction order matters: the ledger backs
/// the engine and the stack; the router must outlive the engine.
struct Shard {
  util::BudgetLedger ledger;
  supertree::SuperTreeProtocol protocol;
  Mailbox router;
  sim::Engine engine;
  ObserverStack stack;

  Shard(const net::ClusteredTopology& topo, supertree::IntraScheme intra,
        const ObserverSpec& base, int lo, int hi)
      : ledger(util::MemoryBudget{base.scale.budget_bytes}),
        protocol(topo, intra, {lo, hi}),
        router(topo, lo, hi),
        engine(topo, protocol,
               sim::EngineOptions{.packet_window_hint = base.window,
                                  .budget = &ledger,
                                  .router = &router}),
        stack(topo, shard_spec(base, topo, lo, hi), &ledger) {
    stack.attach(engine, nullptr);
  }
};

}  // namespace

QosReport run_multicluster_sharded(const SessionConfig& config,
                                   const ShardOptions& opts,
                                   ShardMetrics* metrics) {
  const scheme::Descriptor& desc = scheme::descriptor(config.scheme);
  if (!desc.caps.multicluster) {
    throw std::invalid_argument(
        "sharded runs require a multicluster-capable scheme");
  }
  const NodeKey n = config.n;
  const int clusters = config.clusters;
  const int shard_count = std::clamp(opts.shards, 1, clusters);

  const auto construct_start = Clock::now();

  std::vector<net::ClusteredTopology::ClusterSpec> specs(
      static_cast<std::size_t>(clusters),
      net::ClusteredTopology::ClusterSpec{n});
  net::ClusteredTopology topo(specs, config.big_d, config.d, config.t_c);

  const Slot bound = desc.multicluster_bound(config);
  PacketId window = config.window;
  if (window == 0) window = 2 * multitree::worst_delay_bound(n, config.d);
  const Slot horizon = window + bound + 8;
  const Slot epoch = topo.t_c();

  ObserverSpec base;
  base.window = window;
  base.node_span = static_cast<NodeKey>(topo.size());
  base.audit = config.audit;
  if (config.audit) {
    // Same cross-cluster envelope the serial session path audits: the
    // structural bound covers the backbone hops and doubles as the buffer
    // envelope; only plain receivers are window-audited.
    audit::AuditOptions audit_opts;
    audit_opts.window = window;
    audit_opts.delay_bound = bound;
    audit_opts.buffer_bound = bound;
    audit_opts.require_complete = true;
    base.audit_options = std::move(audit_opts);
  }
  base.scale = config.scale;

  // Deterministic contiguous assignment: shard s owns clusters
  // [⌊s·K/S⌋, ⌊(s+1)·K/S⌋). Cluster 0 (and the global source with it)
  // always lands in shard 0, so every cross-shard link crosses clusters
  // and has latency exactly T_c — the epoch-safety precondition.
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<int> owner_of_cluster(static_cast<std::size_t>(clusters), 0);
  for (int s = 0; s < shard_count; ++s) {
    const int lo = static_cast<int>(
        (static_cast<long long>(s) * clusters) / shard_count);
    const int hi = static_cast<int>(
        (static_cast<long long>(s + 1) * clusters) / shard_count);
    shards.push_back(std::make_unique<Shard>(topo, desc.intra, base, lo, hi));
    for (int c = lo; c < hi; ++c) {
      owner_of_cluster[static_cast<std::size_t>(c)] = s;
    }
  }

  const double construct_s = seconds_since(construct_start);
  const auto pump_start = Clock::now();

  // Epoch barrier: workers advance T_c slots, then one thread (the barrier
  // completion) drains every outbox in shard order and injects each
  // delivery into its owner — into the ring for epoch e+1 arrivals, via
  // the retroactive path for last-slot-of-epoch-e arrivals. The completion
  // must be noexcept, so errors are parked and rethrown after the join.
  std::atomic<bool> failed{false};
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(shard_count) + 1);
  auto exchange = [&]() noexcept {
    try {
      for (auto& shard : shards) {
        for (const sim::Delivery& d : shard->router.outbox()) {
          const int c = topo.cluster_of(d.tx.to);
          shards[static_cast<std::size_t>(
                     owner_of_cluster[static_cast<std::size_t>(c)])]
              ->engine.post(d);
        }
        shard->router.outbox().clear();
      }
    } catch (...) {
      errors[static_cast<std::size_t>(shard_count)] =
          std::current_exception();
      failed.store(true);
    }
  };
  std::barrier sync(shard_count, exchange);

  auto work = [&](int s) {
    try {
      sim::Engine& engine = shards[static_cast<std::size_t>(s)]->engine;
      // Every shard computes the identical goal sequence, so the final
      // arrive_and_wait releases all workers into the same break.
      Slot goal = std::min(epoch, horizon);
      for (;;) {
        engine.run_until(goal);
        sync.arrive_and_wait();
        if (failed.load()) return;
        if (goal >= horizon) return;
        goal = std::min<Slot>(goal + epoch, horizon);
      }
    } catch (...) {
      errors[static_cast<std::size_t>(s)] = std::current_exception();
      failed.store(true);
      sync.arrive_and_drop();
    }
  };

  {
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(shard_count) - 1);
    for (int s = 1; s < shard_count; ++s) pool.emplace_back(work, s);
    work(0);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  // Audit verdicts in shard order: each shard's auditor saw the complete
  // arrival evidence for its own receivers.
  for (auto& shard : shards) shard->stack.require_clean();

  const double pump_s = seconds_since(pump_start);
  const auto merge_start = Clock::now();

  sim::EngineStats merged{};
  for (auto& shard : shards) {
    const sim::EngineStats& st = shard->engine.stats();
    merged.transmissions += st.transmissions;
    merged.duplicate_deliveries += st.duplicate_deliveries;
    merged.deliveries += st.deliveries;
    merged.drops += st.drops;
    merged.retransmissions += st.retransmissions;
    merged.arena_bytes += st.arena_bytes;
    merged.arena_chunks += st.arena_chunks;
    merged.arena_allocations += st.arena_allocations;
    merged.ring_relayouts += st.ring_relayouts;
    merged.seen_relayouts += st.seen_relayouts;
  }

  AggregateInputs in;
  in.stack_of = [&](NodeKey key) -> const ObserverStack& {
    const int c = topo.cluster_of(key);
    return shards[static_cast<std::size_t>(
                      owner_of_cluster[static_cast<std::size_t>(c)])]
        ->stack;
  };
  in.stats = merged;
  in.end = horizon;
  QosReport report =
      aggregate_qos({.label = scheme_label(config.scheme, clusters),
                     .report_n = n * clusters,
                     .d = config.d,
                     .receivers = owned_receivers(topo, 0, clusters)},
                    in);

  if (metrics != nullptr) {
    metrics->shards = shard_count;
    metrics->construct_s = construct_s;
    metrics->pump_s = pump_s;
    metrics->merge_s = seconds_since(merge_start);
    metrics->stats = merged;
  }
  return report;
}

}  // namespace streamcast::core
