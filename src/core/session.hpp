// StreamingSession — the one-stop public API: pick a scheme, run it on the
// slot engine, get the QoS report the paper's Table 1 compares.
//
//   core::SessionConfig cfg{.scheme = core::Scheme::kMultiTreeGreedy,
//                           .n = 100, .d = 3};
//   core::QosReport report = core::StreamingSession(cfg).run();
//
// The session is a thin configuration of core::RunPipeline: it asks the
// scheme registry (src/scheme/) for the overlay and the audit envelope,
// hands both to the pipeline, and returns the aggregated report. For
// anything beyond single-cluster QoS measurement (custom observers,
// cross-cluster composition, churn), use RunPipeline or the underlying
// modules directly — the session is a convenience wrapper, not a
// gatekeeper.
#pragma once

#include "src/core/config.hpp"
#include "src/core/report.hpp"
#include "src/scale/recorder.hpp"

namespace streamcast::core {

/// QoS report plus the scale path's distribution summaries and memory
/// accounting (run_scale()).
struct ScaleRunResult {
  QosReport qos;
  scale::ScaleSummary summary;
};

class StreamingSession {
 public:
  explicit StreamingSession(SessionConfig config);

  /// Builds topology and protocol via the scheme registry, simulates until
  /// every receiver completed the measurement window, and aggregates the
  /// QoS metrics. With `config.loss.model != kNone` this is
  /// `run_lossy().qos`.
  ///
  /// Scale path (DESIGN.md §11): at or above config.scale.replay_threshold
  /// receivers an eligible run — see replay_eligible() — skips the slot
  /// engine and replays the schedule in closed form, producing the same
  /// QosReport bytes as the pump (regression-tested).
  QosReport run() const;

  /// run(), returning the sketched delay/buffer distributions and the
  /// memory-budget accounting alongside the QoS report. Reliable
  /// single-cluster runs only.
  ScaleRunResult run_scale() const;

  /// True when this config can skip the slot engine entirely: a reliable
  /// single-cluster run of a scheme with the closed_form_replay capability
  /// in a replayable stream mode (kPreRecorded / kLivePrebuffered), without
  /// the auditor (auditing *is* watching the engine) and with a window the
  /// closed form covers (>= d). Thresholds are not part of eligibility;
  /// run() additionally requires n >= config.scale.replay_threshold.
  static bool replay_eligible(const SessionConfig& config);

  /// Lossy run (valid for any LossConfig, including kNone): wraps the scheme
  /// in loss::RecoveryProtocol over a net::ProvisionedTopology, attaches the
  /// configured erasure model, drains until every receiver's prefix is
  /// gap-free (or max_drain), and reports QoS, loss, and startup metrics
  /// (the latter from config.startup — DESIGN.md §15).
  LossRunResult run_lossy() const;

  /// Startup-policy run for any single-cluster config: lossy configs go
  /// through run_lossy(); reliable configs simulate with a continuity
  /// recorder attached (never the closed-form replay — adaptive startup
  /// decides from observed arrivals) and fold only the startup summary,
  /// leaving `loss` zeroed.
  LossRunResult run_startup() const;

  const SessionConfig& config() const { return config_; }

 private:
  SessionConfig config_;
};

}  // namespace streamcast::core
