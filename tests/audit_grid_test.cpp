// The audited grid sweep: every scheme, over an (N, d) grid — plus a
// (clusters, T_c) grid for the super-tree composition and lossy runs for the
// recovery path — executes under SessionConfig::audit = true, which attaches
// the InvariantAuditor and throws with a structured AuditReport if any of
// the paper's invariants (capacity, collision-freedom, T_c pacing,
// duplicate-freedom, Thm 2 / Prop 1-2 delay & buffer envelopes) breaks.
//
// The grids run through run::run_sweep — the deterministic parallel sweep
// scheduler — both to cut wall-clock on multi-core CI and to keep the
// runner itself under audit coverage: every session here re-checks the full
// invariant set regardless of which worker thread it landed on.
//
// Scheme lists come from the scheme registry, selected by capability flags
// (live_modes, demand_driven, dense_links, multicluster) instead of
// hand-maintained enum lists: a scheme added to the registry joins the
// audited grid automatically.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/streamcast.hpp"
#include "src/run/sweep.hpp"

namespace streamcast {
namespace {

using core::Scheme;
using core::SessionConfig;
using core::run_session;

std::string describe(const SessionConfig& cfg) {
  std::string s = std::string(core::scheme_name(cfg.scheme)) +
                  " N=" + std::to_string(cfg.n) +
                  " d=" + std::to_string(cfg.d);
  if (cfg.clusters > 1) {
    s += " clusters=" + std::to_string(cfg.clusters) +
         " T_c=" + std::to_string(cfg.t_c);
  }
  if (cfg.loss.model != loss::ErasureKind::kNone) {
    s += " p=" + std::to_string(cfg.loss.rate);
  }
  return s;
}

std::string error_text(const run::TaskResult& r) {
  if (!r.error) return {};
  try {
    std::rethrow_exception(r.error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

/// Runs the grid on the parallel sweep runner and asserts every audited
/// session finished violation-free.
std::vector<run::TaskResult> sweep_clean(
    const std::vector<SessionConfig>& tasks) {
  const auto results = run::run_sweep(tasks);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].error)
        << describe(tasks[i]) << ": " << error_text(results[i]);
  }
  return results;
}

TEST(AuditGrid, MultiTreeSchemesHoldTheorem2Envelopes) {
  std::vector<SessionConfig> tasks;
  for (const scheme::Descriptor& desc : scheme::all()) {
    if (!desc.caps.live_modes) continue;  // the multi-tree family
    for (const sim::NodeKey n : {5, 14, 40, 63}) {
      for (const int d : {2, 3, 4}) {
        tasks.push_back({.scheme = desc.id, .n = n, .d = d, .audit = true});
      }
    }
  }
  sweep_clean(tasks);
}

TEST(AuditGrid, MultiTreeLiveModesHoldShiftedEnvelopes) {
  std::vector<SessionConfig> tasks;
  for (const scheme::Descriptor& desc : scheme::all()) {
    if (!desc.caps.live_modes) continue;
    for (const auto mode : {multitree::StreamMode::kLivePrebuffered,
                            multitree::StreamMode::kLivePipelined}) {
      for (const sim::NodeKey n : {13, 40}) {
        for (const int d : {2, 3}) {
          tasks.push_back({.scheme = desc.id,
                           .n = n,
                           .d = d,
                           .mode = mode,
                           .audit = true});
        }
      }
    }
  }
  // The registry's live-mode surface is exactly the multi-tree family.
  EXPECT_EQ(tasks.size(), 2u * 2u * 2u * 2u);
  sweep_clean(tasks);
}

TEST(AuditGrid, HypercubeSchemesHoldConstantBufferEnvelope) {
  std::vector<SessionConfig> tasks;
  for (const scheme::Descriptor& desc : scheme::all()) {
    if (!desc.caps.demand_driven) continue;  // the hypercube family
    if (desc.caps.degree_sweep) {
      for (const sim::NodeKey n : {24, 90}) {
        for (const int d : {2, 3}) {
          tasks.push_back({.scheme = desc.id, .n = n, .d = d,
                           .audit = true});
        }
      }
    } else {
      for (const sim::NodeKey n : {7, 25, 63, 127}) {
        tasks.push_back({.scheme = desc.id, .n = n, .d = 1, .audit = true});
      }
    }
  }
  sweep_clean(tasks);
}

TEST(AuditGrid, BaselinesHoldClosedFormEnvelopes) {
  std::vector<SessionConfig> tasks;
  for (const scheme::Descriptor& desc : scheme::all()) {
    if (!desc.caps.dense_links) continue;  // the baseline forwarders
    for (const sim::NodeKey n : {5, 20, 50}) {
      tasks.push_back({.scheme = desc.id,
                       .n = n,
                       .d = desc.caps.degree_sweep ? 2 : 1,
                       .audit = true});
    }
  }
  sweep_clean(tasks);
}

TEST(AuditGrid, SuperTreeCompositionHoldsUnderTcSweep) {
  std::vector<SessionConfig> tasks;
  for (const scheme::Descriptor& desc : scheme::all()) {
    if (!desc.caps.multicluster) continue;
    const sim::NodeKey n = desc.caps.degree_sweep ? 10 : 7;
    const int d = desc.caps.degree_sweep ? 2 : 1;
    for (const int clusters : {3, 6}) {
      for (const sim::Slot t_c : {2, 8, 16}) {
        tasks.push_back({.scheme = desc.id,
                         .n = n,
                         .d = d,
                         .clusters = clusters,
                         .big_d = 3,
                         .t_c = t_c,
                         .audit = true});
      }
    }
  }
  sweep_clean(tasks);
}

TEST(AuditGrid, LossyRecoveryRunsStayWithinProvisionedInvariants) {
  std::vector<SessionConfig> tasks;
  for (const scheme::Descriptor& desc : scheme::all()) {
    for (const double rate : {0.0, 0.02, 0.1}) {
      SessionConfig cfg{.scheme = desc.id,
                        .n = 30,
                        .d = desc.caps.degree_sweep ? 2 : 1,
                        .audit = true};
      cfg.loss.model = loss::ErasureKind::kBernoulli;
      cfg.loss.rate = rate;
      tasks.push_back(cfg);
    }
  }
  // FEC path: decoded packets never cross a link; the physical-stream audit
  // must still hold every capacity/pacing invariant.
  SessionConfig fec{.scheme = Scheme::kMultiTreeGreedy, .n = 30, .d = 2,
                    .audit = true};
  fec.loss.model = loss::ErasureKind::kBernoulli;
  fec.loss.rate = 0.05;
  fec.loss.recovery = policy::RecoveryMode::kFec;
  tasks.push_back(fec);

  const auto results = sweep_clean(tasks);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].error) continue;
    if (tasks[i].loss.rate > 0) {
      EXPECT_GT(results[i].loss->drops, 0) << describe(tasks[i]);
    }
  }
}

TEST(AuditGrid, AuditedRunMatchesUnauditedReport) {
  SessionConfig cfg{.scheme = Scheme::kMultiTreeGreedy, .n = 40, .d = 3};
  cfg.audit = false;
  const auto plain = run_session(cfg).qos;
  cfg.audit = true;
  const auto audited = run_session(cfg).qos;
  EXPECT_EQ(plain.worst_delay, audited.worst_delay);
  EXPECT_EQ(plain.max_buffer, audited.max_buffer);
  EXPECT_EQ(plain.transmissions, audited.transmissions);
}

}  // namespace
}  // namespace streamcast
