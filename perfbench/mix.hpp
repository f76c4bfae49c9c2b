// Seeded session mixes: the benchmark's workloads, the entry point each
// session is run through, the canonical rendering of its report, and the
// output checks every report must pass.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/report.hpp"
#include "src/scale/recorder.hpp"

namespace perfbench {

using streamcast::core::SessionConfig;

/// The public entry point a user of the session's path calls.
enum class Path {
  kReliable,      // StreamingSession::run, single cluster
  kMulticluster,  // StreamingSession::run, super-tree over clusters
  kLossy,         // StreamingSession::run_lossy
  kScale,         // StreamingSession::run_scale (replay or scale pump)
};

struct Session {
  /// Index of the session class it was drawn from (Workload::classes).
  int cls = 0;
  Path path = Path::kReliable;
  SessionConfig config;
};

struct Workload {
  std::string name;
  /// Class labels; every session and warm-up names one by index.
  std::vector<std::string> classes;
  /// One timed pass, in order.
  std::vector<Session> sessions;
  /// One untimed warm-up per class, independent of the seed.
  std::vector<Session> warmups;
};

/// Draws the workload's session list from `seed`. Throws
/// std::invalid_argument on an unknown name.
Workload make_workload(std::string_view name, std::uint64_t seed);

/// What a session returned, with its canonical rendering.
struct Outcome {
  streamcast::core::LossRunResult result;  // qos (+ loss, startup if lossy)
  streamcast::scale::ScaleSummary summary;  // kScale only
  std::string rendered;
};

/// Every report field at full precision: QosReport, plus LossSummary and
/// StartupSummary for lossy sessions, plus ScaleSummary for scale sessions.
std::string render(const Session& s, const Outcome& o);

/// Runs the session through its public entry point (tracing off).
Outcome run_session(const Session& s);

/// Output checks that hold on every seed: the registry envelope for
/// reliable reports, gap-free ends for NACK, no undecodable packet for a
/// streaming-code session inside its guaranteed region. Returns the first
/// violated check, or an empty string.
std::string check(const Session& s, const Outcome& o);

/// 64-bit FNV-1a of a rendered report.
std::uint64_t digest(std::string_view rendered);

/// One-line description of a session's configuration.
std::string describe(const Session& s);

}  // namespace perfbench
