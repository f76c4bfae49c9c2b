// run_session — the one-stop public API: pick a scheme, run it on the slot
// engine, get the report the paper's Table 1 compares.
//
//   core::SessionConfig cfg{.scheme = core::Scheme::kMultiTreeGreedy,
//                           .n = 100, .d = 3};
//   core::RunResult r = core::run_session(cfg);  // r.qos
//
// run_session validates the config, routes it once — the closed-form
// replay, the single-cluster pump (wrapped in the recovery layer when the
// links are lossy), or the sharded super-tree runner — and returns the QoS
// report with exactly the sections the config calls for (RunResult,
// DESIGN.md §9). Every route is a thin configuration of core::RunPipeline
// or of the replay; for anything beyond that (custom observers, churn), use
// RunPipeline or the underlying modules directly.
#pragma once

#include "src/core/config.hpp"
#include "src/core/report.hpp"
#include "src/scale/recorder.hpp"

namespace streamcast::core {

/// Throws std::invalid_argument when `config` cannot run: sizes below 1,
/// a scheme or policy combination the registries' capability flags rule
/// out, unknown policy names, or streaming-code parameters below 1.
void validate(const SessionConfig& config);

/// True when this config can skip the slot engine entirely: a reliable
/// single-cluster run of a scheme with the closed_form_replay capability
/// in a replayable stream mode (kPreRecorded / kLivePrebuffered), without
/// the auditor (auditing *is* watching the engine) and with a window the
/// closed form covers (>= d). Thresholds are not part of eligibility;
/// run_session() replays only at n >= config.scale.replay_threshold.
bool replay_eligible(const SessionConfig& config);

/// Validates `config` and runs it (DESIGN.md §9, §11, §14, §15):
///  * clusters > 1 — the super-tree composition on the sharded runner
///    (byte-identical at every shard count); `qos` only;
///  * lossy links (loss.model != kNone) — the scheme wrapped in
///    loss::RecoveryProtocol over a net::ProvisionedTopology, drained until
///    every receiver's prefix is resolved (or max_drain); `qos`, `loss` and
///    `startup` (the startup policy's fold);
///  * reliable — the pump, or the closed-form replay at n >=
///    scale.replay_threshold when replay_eligible() holds (the same
///    QosReport bytes); `qos`, plus `scale` at n >= replay_threshold.
RunResult run_session(const SessionConfig& config);

// --- forwards kept for the session-mix benchmark (perfbench/) --------------

/// What StreamingSession::run_scale() returns.
struct ScaleRunResult {
  QosReport qos;
  scale::ScaleSummary summary;
};

/// Forwards to validate() and run_session(). Use run_session() instead.
class StreamingSession {
 public:
  explicit StreamingSession(SessionConfig config);
  QosReport run() const;
  ScaleRunResult run_scale() const;
  LossRunResult run_lossy() const;
  static bool replay_eligible(const SessionConfig& config);

 private:
  SessionConfig config_;
};

}  // namespace streamcast::core
