#include "src/core/session.hpp"

#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/core/shard.hpp"
#include "src/loss/model.hpp"
#include "src/loss/recovery.hpp"
#include "src/policy/registry.hpp"
#include "src/scale/replay.hpp"
#include "src/scheme/registry.hpp"

namespace streamcast::core {

void validate(const SessionConfig& config) {
  if (config.n < 1) throw std::invalid_argument("n < 1");
  if (config.d < 1) throw std::invalid_argument("d < 1");
  if (config.clusters < 1) throw std::invalid_argument("clusters < 1");
  if (config.shards < 1) throw std::invalid_argument("shards < 1");
  if (config.clusters > 1) {
    if (!scheme::descriptor(config.scheme).caps.multicluster) {
      throw std::invalid_argument(
          "multi-cluster sessions support kMultiTreeGreedy or kHypercube");
    }
    if (config.loss.model != loss::ErasureKind::kNone) {
      throw std::invalid_argument("lossy links require clusters == 1");
    }
    if (config.mode != multitree::StreamMode::kPreRecorded) {
      throw std::invalid_argument(
          "multi-cluster sessions stream pre-recorded data; live modes "
          "require clusters == 1");
    }
  }
  if (config.loss.fec_window < 1) throw std::invalid_argument("fec_window < 1");
  if (config.loss.extra_send < 0 || config.loss.extra_recv < 0) {
    throw std::invalid_argument("negative capacity headroom");
  }
  if (config.loss.code.decode_delay < 1 || config.loss.code.burst < 1) {
    throw std::invalid_argument("streaming-code parameters must be >= 1");
  }
  // Both policy names resolve through the registries (throwing on unknown
  // names), and the scheme x recovery combination is validated against the
  // capability flags — never by switching on the policy name.
  const policy::RecoveryPolicyDescriptor& rd = policy::recovery_policy(
      config.loss.recovery_policy.empty()
          ? std::string_view(policy::recovery_policy_name(config.loss.recovery))
          : std::string_view(config.loss.recovery_policy));
  if (rd.caps.bounded_recovery &&
      !scheme::descriptor(config.scheme).caps.bounded_recovery_policies) {
    throw std::invalid_argument(
        "delay-bounded recovery needs link-visible losses; demand-driven "
        "schemes produce silent gaps it cannot close");
  }
  policy::startup_policy(config.startup.policy);
}

namespace {

/// Receivers 1..n of a single cluster, in key order.
std::vector<NodeKey> cluster_receivers(NodeKey n) {
  std::vector<NodeKey> keys(static_cast<std::size_t>(n));
  std::iota(keys.begin(), keys.end(), NodeKey{1});
  return keys;
}

/// How a lossy run's recovery layer repairs the scheme's gaps.
loss::RecoveryOptions recovery_options(const LossConfig& lc,
                                       const scheme::Descriptor& desc,
                                       Slot slack) {
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
  if (desc.caps.demand_driven) opts.gap_timeout = slack;
  return opts;
}

/// Single-cluster run through the pipeline. A lossy config wraps the scheme
/// in loss::RecoveryProtocol over a net::ProvisionedTopology — headroom for
/// repair traffic on top of the paper's exact provisioning, unused while no
/// packet is lost, so a zero-rate run is bit-identical to the reliable one
/// (regression-tested) — attaches the erasure model and drains; a reliable
/// config runs the scheme bare. `at_scale` asks for the scale section.
RunResult run_pumped(const SessionConfig& config, bool at_scale) {
  const NodeKey n = config.n;
  const LossConfig& lc = config.loss;
  const bool lossy = lc.model != loss::ErasureKind::kNone;
  const scheme::Descriptor& desc = scheme::descriptor(config.scheme);

  scheme::Overlay overlay = desc.build(config);
  std::optional<net::ProvisionedTopology> provisioned;
  std::unique_ptr<loss::LossModel> model;
  std::optional<loss::RecoveryProtocol> recovery;
  if (lossy) {
    provisioned.emplace(*overlay.topology, lc.extra_send, lc.extra_recv);
    model = loss::make_model(lc.model, lc.rate, lc.ge, lc.seed);
    recovery.emplace(*provisioned, *overlay.protocol,
                     recovery_options(lc, desc, overlay.slack));
  }

  // On lossy links the auditor watches the *physical* stream (pre-repair),
  // against the provisioned capacities: repair traffic must fit the
  // headroom, collisions and pacing must hold even mid-recovery. FEC-decoded
  // packets never cross a link, so nodes completed by decode alone are
  // skipped by the window checks (require_complete is off; the loss section
  // accounts incompleteness).
  ObserverSpec spec;
  spec.window = overlay.window;
  spec.node_span = n + 1;
  spec.continuity = lossy;
  spec.audit = config.audit;
  if (config.audit) {
    spec.audit_options = scheme::audit_envelope(config, overlay.window);
  }
  spec.scale = config.scale;

  net::Topology& topology = lossy ? *provisioned : *overlay.topology;
  sim::Protocol& protocol = lossy ? *recovery : *overlay.protocol;
  RunPipeline pipeline(topology, protocol, spec, model.get(),
                       recovery ? &*recovery : nullptr);
  pipeline.run(overlay.window + overlay.slack,
               {.from = 1, .to = n, .max_drain = lc.max_drain});

  // A lossy run aggregates delay/buffer over receivers that completed the
  // window and counts the rest instead of throwing (it may legitimately
  // time out).
  RunResult result;
  NodeKey incomplete = 0;
  result.qos = pipeline.aggregate({.label = scheme_label(config.scheme),
                                   .report_n = n,
                                   .d = config.d,
                                   .receivers = cluster_receivers(n),
                                   .skip_incomplete = lossy},
                                  &incomplete,
                                  at_scale ? &result.scale.emplace() : nullptr);
  if (lossy) {
    const std::unique_ptr<policy::StartupPolicy> startup =
        policy::startup_policy(config.startup.policy).make(config.startup);
    result.loss = pipeline.loss_summary(lc, *startup, 1, n,
                                        result.qos.worst_delay,
                                        &result.startup.emplace());
    result.loss->incomplete_nodes = incomplete;
  }
  return result;
}

/// Closed-form schedule replay (DESIGN.md §11): the QosReport the pipeline
/// would have produced, without simulating a single slot.
RunResult replay(const SessionConfig& config) {
  scale::ReplayConfig rc;
  rc.n = config.n;
  rc.d = config.d;
  rc.prebuffered = config.mode == multitree::StreamMode::kLivePrebuffered;
  rc.window = config.window;
  const scale::ReplayReport rr = scale::replay_structured(rc, config.scale);
  RunResult result;
  QosReport& report = result.qos;
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
  result.scale = rr.summary;
  return result;
}

}  // namespace

bool replay_eligible(const SessionConfig& config) {
  if (config.clusters > 1) return false;
  if (config.loss.model != loss::ErasureKind::kNone) return false;
  if (config.audit) return false;
  if (!config.scale.allow_replay) return false;
  if (!scheme::descriptor(config.scheme).caps.closed_form_replay) return false;
  if (config.mode == multitree::StreamMode::kLivePipelined) return false;
  if (config.window > 0 && config.window < config.d) return false;
  return true;
}

RunResult run_session(const SessionConfig& config) {
  validate(config);
  if (config.clusters > 1) {
    RunResult result;
    result.qos = run_multicluster_sharded(config, {.shards = config.shards});
    return result;
  }
  const bool at_scale = config.loss.model == loss::ErasureKind::kNone &&
                        config.scale.replay_threshold > 0 &&
                        config.n >= config.scale.replay_threshold;
  if (at_scale && replay_eligible(config)) return replay(config);
  return run_pumped(config, at_scale);
}

StreamingSession::StreamingSession(SessionConfig config)
    : config_(std::move(config)) {
  validate(config_);
}

QosReport StreamingSession::run() const { return run_session(config_).qos; }

ScaleRunResult StreamingSession::run_scale() const {
  RunResult r = run_session(config_);
  return {std::move(r.qos), r.scale.value_or(scale::ScaleSummary{})};
}

LossRunResult StreamingSession::run_lossy() const {
  RunResult r = run_session(config_);
  return {std::move(r.qos), r.loss.value_or(LossSummary{}),
          r.startup.value_or(StartupSummary{})};
}

bool StreamingSession::replay_eligible(const SessionConfig& config) {
  return core::replay_eligible(config);
}

}  // namespace streamcast::core
