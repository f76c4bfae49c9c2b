#include "src/core/session.hpp"

#include <memory>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/core/shard.hpp"
#include "src/loss/model.hpp"
#include "src/loss/recovery.hpp"
#include "src/policy/registry.hpp"
#include "src/scale/replay.hpp"
#include "src/scheme/registry.hpp"

namespace streamcast::core {

StreamingSession::StreamingSession(SessionConfig config)
    : config_(config) {
  if (config_.n < 1) throw std::invalid_argument("n < 1");
  if (config_.d < 1) throw std::invalid_argument("d < 1");
  if (config_.clusters < 1) throw std::invalid_argument("clusters < 1");
  if (config_.shards < 1) throw std::invalid_argument("shards < 1");
  if (config_.clusters > 1) {
    if (!scheme::descriptor(config_.scheme).caps.multicluster) {
      throw std::invalid_argument(
          "multi-cluster sessions support kMultiTreeGreedy or kHypercube");
    }
    if (config_.loss.model != loss::ErasureKind::kNone) {
      throw std::invalid_argument("lossy links require clusters == 1");
    }
  }
  if (config_.loss.fec_window < 1) throw std::invalid_argument("fec_window < 1");
  if (config_.loss.extra_send < 0 || config_.loss.extra_recv < 0) {
    throw std::invalid_argument("negative capacity headroom");
  }
  if (config_.loss.code.decode_delay < 1 || config_.loss.code.burst < 1) {
    throw std::invalid_argument("streaming-code parameters must be >= 1");
  }
  // Both policy names resolve through the registries (throwing on unknown
  // names), and the scheme x recovery combination is validated against the
  // capability flags — never by switching on the policy name.
  const policy::RecoveryPolicyDescriptor& rd = policy::recovery_policy(
      config_.loss.recovery_policy.empty()
          ? std::string_view(policy::recovery_policy_name(config_.loss.recovery))
          : std::string_view(config_.loss.recovery_policy));
  if (rd.caps.bounded_recovery &&
      !scheme::descriptor(config_.scheme).caps.bounded_recovery_policies) {
    throw std::invalid_argument(
        "delay-bounded recovery needs link-visible losses; demand-driven "
        "schemes produce silent gaps it cannot close");
  }
  policy::startup_policy(config_.startup.policy);
}

namespace {

/// Receivers 1..n of a single cluster, in key order.
std::vector<NodeKey> cluster_receivers(NodeKey n) {
  std::vector<NodeKey> keys(static_cast<std::size_t>(n));
  std::iota(keys.begin(), keys.end(), NodeKey{1});
  return keys;
}

/// Cross-cluster run: the super-tree τ with the registry's intra scheme,
/// executed by the sharded runner (config.shards == 1 is the serial pump;
/// any shard count produces byte-identical output — DESIGN.md §14). The
/// session always streams pre-recorded data across clusters, exactly as the
/// historical serial path did.
QosReport run_multicluster(const SessionConfig& config) {
  ShardOptions opts;
  opts.shards = config.shards;
  return run_multicluster_sharded(config, opts);
}

/// Reliable single-cluster run through the pipeline. `summary`, when given,
/// receives the sketched distributions. `startup`, when given, additionally
/// attaches a continuity recorder and folds the startup summary into
/// `startup_out` (run_startup's lossless path).
QosReport run_reliable(const SessionConfig& config, scale::ScaleSummary* summary,
                       const policy::StartupPolicy* startup = nullptr,
                       StartupSummary* startup_out = nullptr) {
  const NodeKey n = config.n;

  scheme::Overlay overlay = scheme::descriptor(config.scheme).build(config);

  ObserverSpec spec;
  spec.window = overlay.window;
  spec.node_span = n + 1;
  spec.continuity = startup != nullptr;
  spec.audit = config.audit;
  if (config.audit) {
    spec.audit_options = scheme::audit_envelope(config, overlay.window);
  }
  spec.scale = config.scale;

  RunPipeline pipeline(*overlay.topology, *overlay.protocol, spec);
  pipeline.run(overlay.window + overlay.slack);
  QosReport report = pipeline.aggregate({.label = scheme_label(config.scheme),
                                         .report_n = n,
                                         .d = config.d,
                                         .receivers = cluster_receivers(n)},
                                        nullptr, summary);
  if (startup != nullptr && startup_out != nullptr) {
    *startup_out = pipeline.startup_summary(
        *startup, config.loss.playback_start, 1, n, report.worst_delay);
  }
  return report;
}

/// Closed-form schedule replay (DESIGN.md §11): the QosReport the pipeline
/// would have produced, without simulating a single slot.
QosReport replay_report(const SessionConfig& config,
                        scale::ScaleSummary* summary) {
  scale::ReplayConfig rc;
  rc.n = config.n;
  rc.d = config.d;
  rc.prebuffered = config.mode == multitree::StreamMode::kLivePrebuffered;
  rc.window = config.window;
  const scale::ReplayReport rr = scale::replay_structured(rc, config.scale);
  QosReport report;
  report.scheme = scheme_label(config.scheme);
  report.n = config.n;
  report.d = config.d;
  report.worst_delay = rr.worst_delay;
  report.average_delay = rr.average_delay;
  report.max_buffer = rr.max_buffer;
  report.average_buffer = rr.average_buffer;
  report.max_neighbors = rr.max_neighbors;
  report.average_neighbors = rr.average_neighbors;
  report.transmissions = rr.transmissions;
  report.slots_simulated = rr.horizon;
  if (summary != nullptr) *summary = rr.summary;
  return report;
}

}  // namespace

bool StreamingSession::replay_eligible(const SessionConfig& config) {
  if (config.clusters > 1) return false;
  if (config.loss.model != loss::ErasureKind::kNone) return false;
  if (config.audit) return false;
  if (!config.scale.allow_replay) return false;
  if (!scheme::descriptor(config.scheme).caps.closed_form_replay) return false;
  if (config.mode == multitree::StreamMode::kLivePipelined) return false;
  if (config.window > 0 && config.window < config.d) return false;
  // Adaptive startup decides from the run's own observations (first
  // arrivals, loss fraction, replay probes); the closed form has none.
  if (policy::startup_policy(config.startup.policy).caps.adaptive) {
    return false;
  }
  return true;
}

QosReport StreamingSession::run() const {
  if (config_.clusters > 1) return run_multicluster(config_);
  if (config_.loss.model != loss::ErasureKind::kNone) {
    return run_lossy().qos;
  }
  if (config_.scale.replay_threshold > 0 &&
      config_.n >= config_.scale.replay_threshold &&
      replay_eligible(config_)) {
    return replay_report(config_, nullptr);
  }
  return run_reliable(config_, nullptr);
}

ScaleRunResult StreamingSession::run_scale() const {
  if (config_.clusters > 1 || config_.loss.model != loss::ErasureKind::kNone) {
    throw std::invalid_argument(
        "run_scale requires a reliable single-cluster run");
  }
  ScaleRunResult result;
  if (config_.scale.replay_threshold > 0 &&
      config_.n >= config_.scale.replay_threshold &&
      replay_eligible(config_)) {
    result.qos = replay_report(config_, &result.summary);
  } else {
    result.qos = run_reliable(config_, &result.summary);
  }
  return result;
}

LossRunResult StreamingSession::run_lossy() const {
  if (config_.clusters > 1) {
    throw std::invalid_argument("lossy runs require clusters == 1");
  }
  const NodeKey n = config_.n;
  const LossConfig& lc = config_.loss;
  const scheme::Descriptor& desc = scheme::descriptor(config_.scheme);

  scheme::Overlay overlay = desc.build(config_);

  // Headroom for repair traffic on top of the paper's exact provisioning;
  // unused while no packet is lost, so a kNone/zero-rate run is bit-identical
  // to the reliable engine (regression-tested).
  net::ProvisionedTopology topology(*overlay.topology, lc.extra_send,
                                    lc.extra_recv);
  std::unique_ptr<loss::LossModel> model =
      loss::make_model(lc.model, lc.rate, lc.ge, lc.seed);

  loss::RecoveryOptions opts;
  opts.mode = lc.recovery;
  opts.policy = lc.recovery_policy;
  opts.fec_window = lc.fec_window;
  opts.code = lc.code;
  // Every packet id flows over every link only in the newest-only
  // forwarders; elsewhere id jumps per link are part of the schedule.
  opts.dense_links = desc.caps.dense_links;
  // Demand-driven exchanges stop offering a packet once its consumption
  // slot passes, so some gaps produce no failed transmission to NACK: sweep
  // them once they outlive any legitimate arrival skew (bounded by the
  // slack, which includes the scheme's worst-delay bound).
  if (desc.caps.demand_driven) {
    opts.gap_timeout = overlay.slack;
  }
  loss::RecoveryProtocol recovery(topology, *overlay.protocol, opts);

  // The auditor watches the *physical* stream (pre-repair), against the
  // provisioned capacities: repair traffic must fit the headroom, collisions
  // and pacing must hold even mid-recovery. FEC-decoded packets never cross
  // a link, so nodes completed by decode alone are skipped by the window
  // checks (require_complete is off; the session accounts incompleteness in
  // LossSummary).
  ObserverSpec spec;
  spec.window = overlay.window;
  spec.node_span = n + 1;
  spec.continuity = true;
  spec.audit = config_.audit;
  if (config_.audit) {
    spec.audit_options = scheme::audit_envelope(config_, overlay.window);
  }
  spec.scale = config_.scale;

  RunPipeline pipeline(topology, recovery, spec, model.get(), &recovery);
  pipeline.run(overlay.window + overlay.slack,
               {.from = 1, .to = n, .max_drain = lc.max_drain});

  // Aggregate delay/buffer over receivers that completed the window; count
  // the rest instead of throwing (a lossy run may legitimately time out).
  LossRunResult result;
  NodeKey incomplete = 0;
  result.qos = pipeline.aggregate({.label = scheme_label(config_.scheme),
                                   .report_n = n,
                                   .d = config_.d,
                                   .receivers = cluster_receivers(n),
                                   .skip_incomplete = true},
                                  &incomplete);
  const std::unique_ptr<policy::StartupPolicy> startup =
      policy::startup_policy(config_.startup.policy).make(config_.startup);
  result.loss = pipeline.loss_summary(lc, *startup, 1, n,
                                      result.qos.worst_delay, &result.startup);
  result.loss.incomplete_nodes = incomplete;
  return result;
}

LossRunResult StreamingSession::run_startup() const {
  if (config_.clusters > 1) {
    throw std::invalid_argument("run_startup requires clusters == 1");
  }
  if (config_.loss.model != loss::ErasureKind::kNone) return run_lossy();
  LossRunResult result;
  const std::unique_ptr<policy::StartupPolicy> startup =
      policy::startup_policy(config_.startup.policy).make(config_.startup);
  result.qos = run_reliable(config_, nullptr, startup.get(), &result.startup);
  return result;
}

}  // namespace streamcast::core
