#include "perfbench/tracer.hpp"

#include <chrono>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "perfbench/alloc.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/session.hpp"
#include "src/core/shard.hpp"
#include "src/net/topology.hpp"
#include "src/policy/registry.hpp"
#include "src/scale/replay.hpp"
#include "src/scheme/registry.hpp"

namespace perfbench {

namespace core = streamcast::core;
namespace loss = streamcast::loss;
namespace scheme = streamcast::scheme;
namespace sim = streamcast::sim;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The protocol layer a scheme's transmit/deliver calls are charged to,
/// keyed by the registry's canonical name (the module that implements it).
Layer protocol_layer(core::Scheme s) {
  static constexpr std::pair<std::string_view, Layer> kFamilies[] = {
      {"multi-tree/structured", kProtoMultitree},
      {"multi-tree/greedy", kProtoMultitree},
      {"hypercube", kProtoHypercube},
      {"hypercube/grouped", kProtoHypercube},
      {"chain", kProtoBaseline},
      {"single-tree", kProtoBaseline},
      {"random-regular", kProtoRrd},
      {"dynamic-trees", kProtoDyntree}};
  const std::string_view name = core::scheme_name(s);
  for (const auto& [scheme, layer] : kFamilies) {
    if (scheme == name) return layer;
  }
  throw std::invalid_argument("no protocol layer for scheme " +
                              std::string(name));
}

Layer recovery_layer(std::string_view policy) {
  if (policy == "nack") return kRecoveryNack;
  if (policy == "xor-parity") return kRecoveryXor;
  if (policy == "streaming-code") return kRecoveryCode;
  throw std::invalid_argument("no recovery layer for policy " +
                              std::string(policy));
}

std::vector<sim::NodeKey> receivers(sim::NodeKey n) {
  std::vector<sim::NodeKey> keys(static_cast<std::size_t>(n));
  std::iota(keys.begin(), keys.end(), sim::NodeKey{1});
  return keys;
}

void count_engine(const sim::EngineStats& st, sim::Slot slots,
                  LayerCounts& counts) {
  counts.transmissions += st.transmissions;
  counts.deliveries += st.deliveries;
  counts.slots += slots;
  counts.arena_chunks += st.arena_chunks;
  counts.ring_relayouts += st.ring_relayouts;
  counts.seen_relayouts += st.seen_relayouts;
}

/// StreamingSession's reliable single-cluster path (run, and run_scale's
/// pump when `summary` is given).
core::QosReport traced_reliable(const SessionConfig& config, Tracer& tr,
                                LayerCounts& counts,
                                streamcast::scale::ScaleSummary* summary) {
  scheme::Overlay overlay;
  {
    Span span(tr, kBuild);
    overlay = scheme::descriptor(config.scheme).build(config);
  }
  core::ObserverSpec spec;
  spec.window = overlay.window;
  spec.node_span = config.n + 1;
  spec.audit = config.audit;
  if (config.audit) {
    spec.audit_options = scheme::audit_envelope(config, overlay.window);
  }
  spec.scale = config.scale;

  TracedProtocol protocol(*overlay.protocol, tr, protocol_layer(config.scheme));
  std::optional<core::RunPipeline> pipeline;
  {
    Span span(tr, kConstruct);
    pipeline.emplace(*overlay.topology, protocol, spec);
  }
  {
    Span span(tr, kRun);
    pipeline->run(overlay.window + overlay.slack);
  }
  core::QosReport report;
  {
    Span span(tr, kAggregate);
    report = pipeline->aggregate({.label = core::scheme_label(config.scheme),
                                  .report_n = config.n,
                                  .d = config.d,
                                  .receivers = receivers(config.n)},
                                 nullptr, summary);
  }
  count_engine(pipeline->engine().stats(), pipeline->end(), counts);
  counts.pipeline_transmissions += pipeline->engine().stats().transmissions;
  return report;
}

/// StreamingSession::run_lossy.
core::LossRunResult traced_lossy(const SessionConfig& config, Tracer& tr,
                                 LayerCounts& counts) {
  const core::LossConfig& lc = config.loss;
  const scheme::Descriptor& desc = scheme::descriptor(config.scheme);
  scheme::Overlay overlay;
  {
    Span span(tr, kBuild);
    overlay = desc.build(config);
  }
  TracedProtocol inner(*overlay.protocol, tr, protocol_layer(config.scheme));

  loss::RecoveryOptions opts;
  opts.mode = lc.recovery;
  opts.policy = lc.recovery_policy;
  opts.fec_window = lc.fec_window;
  opts.code = lc.code;
  opts.dense_links = desc.caps.dense_links;
  if (desc.caps.demand_driven) opts.gap_timeout = overlay.slack;

  core::ObserverSpec spec;
  spec.window = overlay.window;
  spec.node_span = config.n + 1;
  spec.continuity = true;
  spec.audit = config.audit;
  if (config.audit) {
    spec.audit_options = scheme::audit_envelope(config, overlay.window);
  }
  spec.scale = config.scale;

  std::optional<streamcast::net::ProvisionedTopology> topology;
  std::unique_ptr<loss::LossModel> model;
  std::optional<TracedLossModel> traced_model;
  std::optional<loss::RecoveryProtocol> recovery;
  std::optional<TracedProtocol> outer;
  std::optional<core::RunPipeline> pipeline;
  {
    Span span(tr, kConstruct);
    topology.emplace(*overlay.topology, lc.extra_send, lc.extra_recv);
    model = loss::make_model(lc.model, lc.rate, lc.ge, lc.seed);
    traced_model.emplace(*model, tr);
    recovery.emplace(*topology, inner, opts);
    outer.emplace(*recovery, tr, recovery_layer(recovery->policy_name()));
    pipeline.emplace(*topology, *outer, spec, &*traced_model, &*recovery);
  }
  {
    Span span(tr, kRun);
    pipeline->run(overlay.window + overlay.slack,
                  {.from = 1, .to = config.n, .max_drain = lc.max_drain});
  }
  core::LossRunResult result;
  sim::NodeKey incomplete = 0;
  {
    Span span(tr, kAggregate);
    result.qos = pipeline->aggregate({.label = core::scheme_label(config.scheme),
                                      .report_n = config.n,
                                      .d = config.d,
                                      .receivers = receivers(config.n),
                                      .skip_incomplete = true},
                                     &incomplete);
  }
  {
    Span span(tr, kStartupFold);
    const std::unique_ptr<streamcast::policy::StartupPolicy> startup =
        streamcast::policy::startup_policy(config.startup.policy)
            .make(config.startup);
    result.loss = pipeline->loss_summary(lc, *startup, 1, config.n,
                                         result.qos.worst_delay,
                                         &result.startup);
  }
  result.loss.incomplete_nodes = incomplete;

  count_engine(pipeline->engine().stats(), pipeline->end(), counts);
  counts.pipeline_transmissions += pipeline->engine().stats().transmissions;
  const streamcast::policy::RecoveryStats& rs = recovery->stats();
  counts.drops += result.loss.drops;
  counts.nacks += result.loss.nacks;
  counts.retransmissions += result.loss.retransmissions;
  counts.parity += result.loss.parity_transmissions;
  counts.suppressed += result.loss.suppressed;
  counts.fec_decodes += result.loss.fec_decodes;
  counts.data_transmissions += rs.data_transmissions;
  counts.drain_slots += result.loss.drain_slots;
  counts.lossy_slots += pipeline->end();
  if (result.loss.drain_slots >= lc.max_drain) ++counts.drain_cap_hits;
  return result;
}

/// StreamingSession::run for clusters > 1.
core::QosReport traced_multicluster(const SessionConfig& config, Tracer& tr,
                                    LayerCounts& counts) {
  core::ShardOptions opts;
  opts.shards = config.shards;
  core::ShardMetrics metrics;
  core::QosReport report;
  {
    Span span(tr, kShard);
    report = core::run_multicluster_sharded(config, opts, &metrics);
  }
  count_engine(metrics.stats, report.slots_simulated, counts);
  counts.shard_construct_s += metrics.construct_s;
  counts.shard_pump_s += metrics.pump_s;
  counts.shard_merge_s += metrics.merge_s;
  return report;
}

/// StreamingSession::run_scale's closed-form replay.
core::QosReport traced_replay(const SessionConfig& config, Tracer& tr,
                              LayerCounts& counts,
                              streamcast::scale::ScaleSummary& summary) {
  streamcast::scale::ReplayConfig rc;
  rc.n = config.n;
  rc.d = config.d;
  rc.prebuffered =
      config.mode == streamcast::multitree::StreamMode::kLivePrebuffered;
  rc.window = config.window;
  std::optional<streamcast::scale::ReplayReport> rr;
  {
    Span span(tr, kReplay);
    rr.emplace(streamcast::scale::replay_structured(rc, config.scale));
  }
  core::QosReport report;
  report.scheme = core::scheme_label(config.scheme);
  report.n = config.n;
  report.d = config.d;
  report.worst_delay = rr->worst_delay;
  report.average_delay = rr->average_delay;
  report.max_buffer = rr->max_buffer;
  report.average_buffer = rr->average_buffer;
  report.max_neighbors = rr->max_neighbors;
  report.average_neighbors = rr->average_neighbors;
  report.transmissions = rr->transmissions;
  report.slots_simulated = rr->horizon;
  summary = rr->summary;
  counts.replay_nodes += config.n;
  return report;
}

}  // namespace

const char* layer_name(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "session",           "scheme.build",        "pipeline.construct",
      "pipeline.run",      "core.aggregate",      "policy.startup_fold",
      "shard",             "scale.replay",        "multitree.protocol",
      "hypercube.protocol", "baseline.protocol",  "rrd.protocol",
      "dyntree.protocol",  "loss.recovery.nack",  "loss.recovery.xor-parity",
      "loss.recovery.streaming-code", "loss.model", "empty"};
  return kNames[layer];
}

Tracer::Tracer(std::size_t coarse_records, std::size_t sessions) {
  records_.reserve(coarse_records);
  folded_.reserve(sessions * (kLayerCount - kFirstFine));
}

void Tracer::begin(Layer layer) {
  if (depth_ == kMaxDepth) {
    overflowed_ = true;
    return;
  }
  std::int32_t record = -1;
  if (layer < kFirstFine) {
    if (records_.size() == records_.capacity()) {
      overflowed_ = true;
    } else {
      std::int32_t parent = -1;
      for (int i = depth_ - 1; i >= 0 && parent < 0; --i) {
        parent = stack_[static_cast<std::size_t>(i)].record;
      }
      record = static_cast<std::int32_t>(records_.size());
      records_.push_back({layer, session_, parent, 0, 0});
    }
  }
  Frame& f = stack_[static_cast<std::size_t>(depth_++)];
  f.layer = layer;
  f.child_ns = 0;
  f.child_allocs = 0;
  f.record = record;
  f.alloc_start = allocations();
  f.start = now_ns();
  if (record >= 0) records_[static_cast<std::size_t>(record)].start = f.start;
}

void Tracer::end() {
  const std::int64_t stop = now_ns();
  const std::uint64_t alloc_stop = allocations();
  if (depth_ == 0) {
    overflowed_ = true;
    return;
  }
  const Frame& f = stack_[static_cast<std::size_t>(--depth_)];
  const std::int64_t dur = stop - f.start;
  const auto allocs = static_cast<std::int64_t>(alloc_stop - f.alloc_start);
  LayerTotals& t = totals_[f.layer];
  t.total_ns += dur;
  t.self_ns += dur - f.child_ns;
  t.calls += 1;
  t.allocs += allocs;
  t.self_allocs += allocs - static_cast<std::int64_t>(f.child_allocs);
  if (depth_ > 0) {
    Frame& parent = stack_[static_cast<std::size_t>(depth_ - 1)];
    parent.child_ns += dur;
    parent.child_allocs += static_cast<std::uint64_t>(allocs);
  }
  if (f.record >= 0) records_[static_cast<std::size_t>(f.record)].end = stop;
}

void Tracer::start_session(int id) {
  session_ = id;
  session_start_ = totals_;
}

void Tracer::finish_session() {
  for (int l = kFirstFine; l < kLayerCount; ++l) {
    const LayerTotals& now = totals_[static_cast<std::size_t>(l)];
    const LayerTotals& then = session_start_[static_cast<std::size_t>(l)];
    if (now.calls == then.calls) continue;
    if (folded_.size() == folded_.capacity()) {
      overflowed_ = true;
      return;
    }
    folded_.push_back({static_cast<Layer>(l), session_,
                       {now.total_ns - then.total_ns, now.self_ns - then.self_ns,
                        now.calls - then.calls, now.allocs - then.allocs,
                        now.self_allocs - then.self_allocs}});
  }
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (const Record& r : records_) {
    out << "{\"span\": \"" << layer_name(r.layer) << "\", \"session\": "
        << r.session << ", \"parent\": " << r.parent
        << ", \"start_ns\": " << r.start << ", \"end_ns\": " << r.end << "}\n";
  }
  for (const Folded& f : folded_) {
    out << "{\"folded\": \"" << layer_name(f.layer) << "\", \"session\": "
        << f.session << ", \"total_ns\": " << f.totals.total_ns
        << ", \"self_ns\": " << f.totals.self_ns
        << ", \"calls\": " << f.totals.calls
        << ", \"allocs\": " << f.totals.allocs << "}\n";
  }
}

void TracedProtocol::transmit(sim::Slot t, std::vector<sim::Tx>& out) {
  Span span(tracer_, layer_);
  inner_.transmit(t, out);
}

void TracedProtocol::deliver(sim::Slot t, const sim::Tx& tx) {
  Span span(tracer_, layer_);
  inner_.deliver(t, tx);
}

bool TracedLossModel::erased(sim::Slot t, const sim::Tx& tx) {
  Span span(tracer_, kModel);
  return inner_.erased(t, tx);
}

Outcome run_traced(const Session& s, Tracer& tracer, LayerCounts& counts) {
  const SessionConfig& c = s.config;
  Outcome o;
  {
    Span span(tracer, kSession);
    // The session's own validation, exactly as the untraced run pays it.
    const core::StreamingSession session(c);
    switch (s.path) {
      case Path::kReliable:
        o.result.qos = traced_reliable(c, tracer, counts, nullptr);
        break;
      case Path::kMulticluster:
        o.result.qos = traced_multicluster(c, tracer, counts);
        break;
      case Path::kLossy:
        o.result = traced_lossy(c, tracer, counts);
        break;
      case Path::kScale:
        if (c.scale.replay_threshold > 0 && c.n >= c.scale.replay_threshold &&
            core::StreamingSession::replay_eligible(c)) {
          o.result.qos = traced_replay(c, tracer, counts, o.summary);
        } else {
          o.result.qos = traced_reliable(c, tracer, counts, &o.summary);
        }
        counts.bytes_peak = std::max<std::int64_t>(
            counts.bytes_peak, static_cast<std::int64_t>(o.summary.bytes_peak));
        break;
    }
  }
  if (s.path == Path::kMulticluster && c.shards > 1) {
    SessionConfig serial = c;
    serial.shards = 1;
    core::ShardMetrics one;
    core::ShardMetrics many;
    core::ShardOptions opts;
    opts.shards = 1;
    const core::QosReport r1 = core::run_multicluster_sharded(serial, opts, &one);
    opts.shards = c.shards;
    const core::QosReport rs = core::run_multicluster_sharded(c, opts, &many);
    if (core::serialize(r1) != core::serialize(o.result.qos) ||
        core::serialize(rs) != core::serialize(o.result.qos)) {
      throw std::runtime_error("sharded report differs from the 1-shard run");
    }
    counts.serial_pump_s += one.pump_s;
    counts.sharded_pump_s += many.pump_s * many.shards;
  }
  return o;
}

}  // namespace perfbench
