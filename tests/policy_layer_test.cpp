// Policy-layer suite (DESIGN.md §15): golden byte-parity for the
// extraction of the recovery strategies and the fixed startup policy,
// registry/capability units, the Badr–Lui–Khisti streaming code, the
// adaptive startup policies, and the session-level validation rules.
//
// The parity heart: every cell of policy_parity_cells.hpp, run serially,
// through run::run_sweep at two thread counts, and (lossless multicluster)
// at shard counts 1..3, must reproduce the bytes captured from the
// PRE-refactor tree (policy_parity_golden.inc) — the monolithic
// RecoveryProtocol with its RecoveryMode switches and the hard-wired
// playback-start slot.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/session.hpp"
#include "src/loss/model.hpp"
#include "src/loss/recovery.hpp"
#include "src/metrics/continuity.hpp"
#include "src/metrics/delay.hpp"
#include "src/net/topology.hpp"
#include "src/policy/registry.hpp"
#include "src/run/sweep.hpp"
#include "src/scheme/registry.hpp"
#include "src/sim/engine.hpp"
#include "tests/policy_parity_cells.hpp"
#include "tests/policy_parity_golden.inc"
#include "tests/recovery_state_cells.hpp"
#include "tests/recovery_state_golden.inc"

namespace streamcast::core {
namespace {

using loss::RecoveryOptions;
using loss::RecoveryProtocol;
using loss::SequenceTracker;
using sim::Delivery;
using sim::Tx;

// --- golden byte-parity ----------------------------------------------------

/// Parses a golden capture into cell-id -> serialized report text.
std::map<std::string, std::string> parse_golden(
    const char* text = kPolicyParityGolden) {
  std::map<std::string, std::string> golden;
  std::istringstream in(text);
  std::string line;
  std::string id;
  std::string body;
  auto flush = [&] {
    if (!id.empty()) golden[id] = body;
    body.clear();
  };
  while (std::getline(in, line)) {
    if (line.rfind("=== ", 0) == 0) {
      flush();
      id = line.substr(4);
    } else if (!line.empty()) {
      if (!body.empty()) body += '\n';
      body += line;
    }
  }
  flush();
  return golden;
}

TEST(PolicyParity, SerialCellsMatchPreRefactorGolden) {
  const auto golden = parse_golden();
  const auto lossy = policy_parity_cells();
  const auto shard = policy_shard_cells();
  ASSERT_EQ(golden.size(), lossy.size() + shard.size())
      << "cell list and golden capture drifted";
  std::vector<PolicyParityCell> cells = lossy;
  cells.insert(cells.end(), shard.begin(), shard.end());
  for (const PolicyParityCell& cell : cells) {
    const auto it = golden.find(cell.id);
    ASSERT_NE(it, golden.end()) << "no golden for cell: " << cell.id;
    EXPECT_EQ(serialize(run_session(cell.cfg)), it->second)
        << "parity break in cell: " << cell.id;
  }
}

TEST(PolicyParity, SweepThreadCountsMatchPreRefactorGolden) {
  const auto golden = parse_golden();
  const auto cells = policy_parity_cells();
  std::vector<SessionConfig> tasks;
  tasks.reserve(cells.size());
  for (const PolicyParityCell& cell : cells) tasks.push_back(cell.cfg);
  for (const int threads : {1, 8}) {
    const auto results = run::run_sweep(tasks, {.threads = threads});
    run::require_all(results);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto it = golden.find(cells[i].id);
      ASSERT_NE(it, golden.end());
      EXPECT_EQ(serialize(results[i]), it->second)
          << "threads=" << threads << " parity break in cell: " << cells[i].id;
    }
  }
}

TEST(RecoveryStateParity, CellsMatchGolden) {
  const auto golden = parse_golden(kRecoveryStateGolden);
  const auto cells = recovery_state_cells();
  ASSERT_EQ(golden.size(), cells.size())
      << "cell list and golden capture drifted";
  for (const RecoveryStateCell& cell : cells) {
    const auto it = golden.find(cell.id);
    ASSERT_NE(it, golden.end()) << "no golden for cell: " << cell.id;
    EXPECT_EQ(render_recovery_cell(cell, run_session(cell.cfg)), it->second)
        << "parity break in cell: " << cell.id;
  }
}

// --- registries ------------------------------------------------------------

TEST(PolicyRegistry, RecoveryEntriesAndCaps) {
  const auto all = policy::recovery_policies();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_FALSE(policy::recovery_policy("none").caps.bounded_recovery);
  EXPECT_FALSE(policy::recovery_policy("nack").caps.bounded_recovery);
  EXPECT_FALSE(policy::recovery_policy("xor-parity").caps.bounded_recovery);
  EXPECT_TRUE(
      policy::recovery_policy("streaming-code").caps.bounded_recovery);
  EXPECT_THROW(policy::recovery_policy("fountain"), std::invalid_argument);
  // The legacy enum maps onto registry names (the compatibility seam the
  // parity cells rely on).
  EXPECT_STREQ(policy::recovery_policy_name(policy::RecoveryMode::kNone),
               "none");
  EXPECT_STREQ(policy::recovery_policy_name(policy::RecoveryMode::kNack),
               "nack");
  EXPECT_STREQ(policy::recovery_policy_name(policy::RecoveryMode::kFec),
               "xor-parity");
}

TEST(PolicyRegistry, StartupEntriesAndCaps) {
  // Startup policies carry no capability flags: they act on lossy runs
  // only, which never replay, so nothing gates on the policy.
  const auto all = policy::startup_policies();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_STREQ(all[0].name, "fixed");
  EXPECT_STREQ(all[1].name, "progressive-ramp");
  EXPECT_STREQ(all[2].name, "loss-adaptive");
  EXPECT_THROW(policy::startup_policy("instant"), std::invalid_argument);
}

// --- startup policies on synthetic contexts --------------------------------

policy::StartupContext synthetic_context() {
  policy::StartupContext ctx;
  ctx.window = 100;
  ctx.horizon = 400;
  ctx.worst_delay = 40;
  ctx.first_arrival = 10;
  ctx.drops = 0;
  ctx.deliveries = 1000;
  ctx.replay = [](Slot) { return policy::PlaybackProbe{}; };
  return ctx;
}

TEST(StartupPolicies, FixedUsesConfiguredSlotElseWorstDelay) {
  const auto fixed = policy::startup_policy("fixed").make({});
  auto ctx = synthetic_context();
  EXPECT_EQ(fixed->start_slot(ctx), 40);
  ctx.fixed_start = 7;
  EXPECT_EQ(fixed->start_slot(ctx), 7);
  ctx.fixed_start = 0;
  EXPECT_EQ(fixed->start_slot(ctx), 0);
}

TEST(StartupPolicies, ProgressiveRampDoublesUntilBudgetMet) {
  policy::StartupOptions opts;
  opts.policy = "progressive-ramp";
  const auto ramp = policy::startup_policy(opts.policy).make(opts);
  auto ctx = synthetic_context();
  // Replays stall until the prebuffer reaches 8 slots past first arrival.
  ctx.replay = [](Slot start) {
    policy::PlaybackProbe probe;
    probe.stalls = start >= 18 ? 0 : 3;
    return probe;
  };
  EXPECT_EQ(ramp->start_slot(ctx), 18);  // 10 + 8 after 1, 2, 4 failed
  // Never later than the fixed slot, even when no candidate meets the
  // budget.
  ctx.replay = [](Slot) { return policy::PlaybackProbe{.stalls = 9}; };
  EXPECT_EQ(ramp->start_slot(ctx), 40);
  ctx.fixed_start = 12;
  EXPECT_EQ(ramp->start_slot(ctx), 12);
}

TEST(StartupPolicies, LossAdaptiveScalesPrebufferWithLossFraction) {
  policy::StartupOptions opts;
  opts.policy = "loss-adaptive";
  const auto adaptive = policy::startup_policy(opts.policy).make(opts);
  auto ctx = synthetic_context();
  // Lossless: the minimum prebuffer right after the first arrival.
  EXPECT_EQ(adaptive->start_slot(ctx), 11);
  // 5% loss over a 100-packet window: 1 + ceil(2 * 0.05 * 100) = 11 slots.
  ctx.drops = 50;
  ctx.deliveries = 950;
  EXPECT_EQ(adaptive->start_slot(ctx), 21);
  // Capped by the fixed slot under heavy loss.
  ctx.drops = 900;
  ctx.deliveries = 100;
  EXPECT_EQ(adaptive->start_slot(ctx), 40);
}

// --- session wiring --------------------------------------------------------

TEST(PolicySession, UnknownPolicyNamesRejected) {
  SessionConfig cfg{.scheme = Scheme::kChain, .n = 4, .d = 1};
  cfg.loss.recovery_policy = "fountain";
  EXPECT_THROW(run_session(cfg), std::invalid_argument);
  cfg.loss.recovery_policy.clear();
  cfg.startup.policy = "instant";
  EXPECT_THROW(run_session(cfg), std::invalid_argument);
  cfg.startup.policy = "fixed";
  cfg.loss.code.burst = 0;
  EXPECT_THROW(run_session(cfg), std::invalid_argument);
}

TEST(PolicySession, BoundedRecoveryRejectedOnDemandDrivenSchemes) {
  SessionConfig cfg{.scheme = Scheme::kHypercube, .n = 7, .d = 1};
  cfg.loss.model = loss::ErasureKind::kBernoulli;
  cfg.loss.rate = 0.05;
  cfg.loss.recovery_policy = "streaming-code";
  EXPECT_THROW(run_session(cfg), std::invalid_argument);
  cfg.scheme = Scheme::kChain;  // link-visible losses: accepted
  EXPECT_NO_THROW(run_session(cfg));
}

TEST(PolicySession, AdaptiveStartupDisablesClosedFormReplay) {
  // Startup policies act on lossy runs only, and a lossy run never replays
  // in closed form: the policy itself no longer enters eligibility.
  SessionConfig cfg{.scheme = Scheme::kMultiTreeStructured, .n = 40, .d = 2};
  cfg.audit = false;
  ASSERT_TRUE(replay_eligible(cfg));
  cfg.startup.policy = "loss-adaptive";
  cfg.loss.model = loss::ErasureKind::kBernoulli;
  EXPECT_FALSE(replay_eligible(cfg));
}

TEST(PolicySession, RunStartupReportsRampEarlierThanFixed) {
  // A Bernoulli p = 0 run: the lossy wiring, whose QoS is byte-identical to
  // the reliable run's (LossySession.ZeroLossRateIsBitIdenticalAcrossSchemes),
  // plus the startup fold. Both summaries are the ones the removed reliable
  // startup path produced for this chain.
  SessionConfig cfg{.scheme = Scheme::kChain, .n = 10, .d = 1};
  cfg.loss.model = loss::ErasureKind::kBernoulli;
  cfg.loss.rate = 0.0;
  const RunResult fixed = run_session(cfg);
  ASSERT_TRUE(fixed.startup);
  EXPECT_EQ(fixed.startup->policy, "fixed");
  EXPECT_EQ(fixed.startup->max_start, fixed.qos.worst_delay);
  EXPECT_EQ(fixed.startup->stalls, 0);
  EXPECT_EQ(serialize(*fixed.startup),
            "startup policy=fixed max_start=9 average_start=9 "
            "earliest_start=9 stalls=0 stall_slots=0 undecodable=0 "
            "max_finish=17");

  cfg.startup.policy = "progressive-ramp";
  const RunResult ramp = run_session(cfg);
  ASSERT_TRUE(ramp.startup);
  EXPECT_EQ(ramp.startup->policy, "progressive-ramp");
  // The chain delivers in order at rate 1, so a one-slot prebuffer after
  // each receiver's first arrival already plays without stalling — strictly
  // earlier than the worst-delay fixed start, at zero stalls.
  EXPECT_EQ(ramp.startup->stalls, 0);
  EXPECT_LT(ramp.startup->earliest_start, fixed.startup->max_start);
  EXPECT_LE(ramp.startup->max_start, fixed.startup->max_start);
  EXPECT_EQ(serialize(*ramp.startup),
            "startup policy=progressive-ramp max_start=9 "
            "average_start=5.4000000000000004 earliest_start=1 stalls=0 "
            "stall_slots=0 undecodable=0 max_finish=17");
  // The same schedule bytes underneath: the startup policy only moves the
  // replay cursor, never the simulation.
  EXPECT_EQ(serialize(ramp.qos), serialize(fixed.qos));
}

TEST(PolicySession, LossAdaptiveStartupOnLossyRun) {
  SessionConfig cfg{.scheme = Scheme::kMultiTreeGreedy, .n = 15, .d = 2};
  cfg.loss.model = loss::ErasureKind::kBernoulli;
  cfg.loss.rate = 0.05;
  cfg.loss.seed = 11;
  cfg.startup.policy = "loss-adaptive";
  const RunResult r = run_session(cfg);
  EXPECT_EQ(r.startup->policy, "loss-adaptive");
  EXPECT_GT(r.startup->max_start, 0);
  EXPECT_LE(r.startup->max_start, r.qos.worst_delay);
  EXPECT_LE(r.startup->earliest_start, r.startup->max_start);
  const std::string line = serialize(*r.startup);
  EXPECT_NE(line.find("startup policy=loss-adaptive"), std::string::npos);
  EXPECT_NE(line.find("max_finish="), std::string::npos);
}

// --- continuity startup edges ----------------------------------------------

Tx data(NodeKey from, NodeKey to, PacketId p) {
  return Tx{.from = from, .to = to, .packet = p, .tag = 0};
}

/// The arrival matrix a continuity recorder replays: packets 0..2 reach
/// node 1 in slots 4..6.
metrics::DelayRecorder arrivals_from_slot_four() {
  metrics::DelayRecorder delays(2, 3);
  for (PacketId p = 0; p < 3; ++p) {
    delays.on_delivery(
        Delivery{.sent = 4 + p, .received = 4 + p, .tx = data(0, 1, p)});
  }
  return delays;
}

TEST(ContinuityStartup, StartSlotZeroCountsLeadingWait) {
  const metrics::DelayRecorder delays = arrivals_from_slot_four();
  const metrics::ContinuityRecorder rec(delays);
  const auto r = rec.report(1, /*playback_start=*/0, /*horizon=*/50);
  EXPECT_EQ(r.stalls, 1);       // one wait for packet 0, then rate-1 flow
  EXPECT_EQ(r.stall_slots, 4);  // slots 0..3
  EXPECT_EQ(r.undecodable, 0);
  EXPECT_EQ(r.finish_slot, 7);
  EXPECT_EQ(rec.first_arrival(1), 4);
}

TEST(ContinuityStartup, StartBeyondStreamEndPlaysWithoutStalling) {
  const metrics::DelayRecorder delays = arrivals_from_slot_four();
  const metrics::ContinuityRecorder rec(delays);
  // Everything arrived long before the start slot — even one past the
  // horizon: arrivals below the horizon stay playable, so the replay is a
  // pure pass-through ending at start + window.
  const auto r = rec.report(1, /*playback_start=*/60, /*horizon=*/50);
  EXPECT_EQ(r.stalls, 0);
  EXPECT_EQ(r.stall_slots, 0);
  EXPECT_EQ(r.undecodable, 0);
  EXPECT_EQ(r.finish_slot, 63);
}

TEST(ContinuityStartup, FirstArrivalOfSilentReceiverIsNever) {
  const metrics::DelayRecorder delays(3, 4);
  const metrics::ContinuityRecorder rec(delays);
  EXPECT_EQ(rec.first_arrival(2), metrics::kNeverArrived);
}

// --- the streaming code ----------------------------------------------------

/// Scripted inner protocol: replays (slot, Tx) and records deliveries.
class Scripted final : public sim::Protocol {
 public:
  void at(Slot t, Tx t_x) { script_.emplace_back(t, t_x); }

  void transmit(Slot t, std::vector<Tx>& out) override {
    for (const auto& [slot, item] : script_) {
      if (slot == t) out.push_back(item);
    }
  }
  void deliver(Slot t, const Tx& t_x) override {
    delivered.push_back(Delivery{.sent = -1, .received = t, .tx = t_x});
  }

  std::vector<Delivery> delivered;

 private:
  std::vector<std::pair<Slot, Tx>> script_;
};

/// Deterministic loss: erases the nth transmission of each listed packet id.
class DropSpecific final : public loss::LossModel {
 public:
  void drop(PacketId p, int times = 1) { budget_[p] = times; }

  bool erased(Slot, const Tx& t_x) override {
    auto it = budget_.find(t_x.packet);
    if (it == budget_.end() || it->second == 0) return false;
    --it->second;
    return true;
  }

 private:
  std::map<PacketId, int> budget_;
};

RecoveryOptions streaming_code_options(Slot decode_delay, PacketId burst) {
  RecoveryOptions opts;
  opts.policy = "streaming-code";
  opts.code.decode_delay = decode_delay;
  opts.code.burst = burst;
  return opts;
}

TEST(StreamingCode, DecodesErasureRunWithinBurstBound) {
  net::UniformCluster base(2, 1);
  net::ProvisionedTopology topo(base, 1, 1);
  Scripted inner;
  for (Slot t = 0; t < 8; ++t) inner.at(t, data(0, 1, t));
  RecoveryProtocol recovery(topo, inner, streaming_code_options(4, 2));
  DropSpecific model;
  model.drop(2);
  sim::Engine engine(topo, recovery);
  engine.set_loss_model(&model);
  engine.add_observer(recovery);
  engine.run_until(24);

  EXPECT_EQ(recovery.stats().fec_decodes, 1);
  EXPECT_EQ(recovery.stats().unrecoverable, 0);
  EXPECT_EQ(recovery.stats().retransmissions, 0);  // no reverse channel
  EXPECT_GT(recovery.stats().parity_transmissions, 0);
  EXPECT_EQ(recovery.stats().max_erasure_run, 1);
  EXPECT_EQ(recovery.gap_free_prefix(1), 8);
  EXPECT_TRUE(recovery.recovery_exhausted());
  // In-order hand-off: the wrapped protocol saw a gapless stream.
  ASSERT_EQ(inner.delivered.size(), 8u);
  for (PacketId p = 0; p < 8; ++p) {
    EXPECT_EQ(inner.delivered[static_cast<std::size_t>(p)].tx.packet, p);
  }
}

TEST(StreamingCode, RunBeyondBurstBoundIsAbandonedNotStalled) {
  net::UniformCluster base(2, 1);
  net::ProvisionedTopology topo(base, 1, 1);
  Scripted inner;
  for (Slot t = 0; t < 8; ++t) inner.at(t, data(0, 1, t));
  // B = 1: packets 0 and 1 erase back-to-back channel uses, a run of 2 the
  // code cannot correct. The window must be declared undecodable — the gate
  // retires, later packets flush through — instead of draining forever.
  RecoveryProtocol recovery(topo, inner, streaming_code_options(4, 1));
  DropSpecific model;
  model.drop(0);
  model.drop(1);
  sim::Engine engine(topo, recovery);
  engine.set_loss_model(&model);
  engine.add_observer(recovery);
  engine.run_until(32);

  EXPECT_EQ(recovery.stats().unrecoverable, 2);
  EXPECT_EQ(recovery.stats().max_erasure_run, 2);
  EXPECT_EQ(recovery.stats().fec_decodes, 0);
  EXPECT_EQ(recovery.gap_free_prefix(1), 0);  // the gap is never repaired
  EXPECT_TRUE(recovery.recovery_exhausted());
  // Playback continuity sees packets 2.. delivered despite the dead gap.
  ASSERT_EQ(inner.delivered.size(), 6u);
  EXPECT_EQ(inner.delivered.front().tx.packet, 2);
}

TEST(StreamingCode, SessionGeBurstLongerThanDecodeDelayReportsUndecodable) {
  SessionConfig cfg{.scheme = Scheme::kChain, .n = 8, .d = 1};
  cfg.window = 64;
  cfg.loss.model = loss::ErasureKind::kGilbertElliott;
  // Long bad spells (mean burst 10) against a code with T = 4, B = 2: some
  // window must die. The run has to terminate and account the dead gaps as
  // undecodable playback, not drain until max_drain hunting for a repair
  // that can never come.
  cfg.loss.ge = {.p_enter = 0.05, .p_recover = 0.1, .loss_good = 0.0,
                 .loss_bad = 1.0};
  cfg.loss.seed = 0xb10c;
  cfg.loss.recovery_policy = "streaming-code";
  cfg.loss.code = {.decode_delay = 4, .burst = 2};
  cfg.loss.max_drain = 4096;
  const RunResult r = run_session(cfg);
  EXPECT_GT(r.loss->unrecoverable, 0);
  EXPECT_GT(r.loss->undecodable, 0);
  EXPECT_FALSE(r.loss->all_gap_free);
  EXPECT_GT(r.loss->max_erasure_run, 2);
  // The bounded-recovery drain stop fired long before the drain budget.
  EXPECT_LT(r.loss->drain_slots, 4096);
}

TEST(StreamingCode, SessionGuaranteedRegionHasNoUndecodableGaps) {
  SessionConfig cfg{.scheme = Scheme::kChain, .n = 8, .d = 1};
  cfg.window = 64;
  cfg.loss.model = loss::ErasureKind::kGilbertElliott;
  // Short, rare bursts against a generous code (T = 12, B = 4): this seed
  // stays inside the code's guaranteed region (no erasure run beyond B, no
  // guard-space collision), where Badr–Lui–Khisti decode is certain.
  cfg.loss.ge = {.p_enter = 0.01, .p_recover = 0.9, .loss_good = 0.0,
                 .loss_bad = 1.0};
  cfg.loss.seed = 0x900d;
  cfg.loss.recovery_policy = "streaming-code";
  cfg.loss.code = {.decode_delay = 12, .burst = 4};
  cfg.loss.max_drain = 4096;
  const RunResult r = run_session(cfg);
  ASSERT_GT(r.loss->drops, 0);
  ASSERT_LE(r.loss->max_erasure_run, 4);
  ASSERT_EQ(r.loss->guard_collisions, 0);
  EXPECT_EQ(r.loss->unrecoverable, 0);
  EXPECT_EQ(r.loss->undecodable, 0);
  EXPECT_TRUE(r.loss->all_gap_free);
  EXPECT_GT(r.loss->fec_decodes, 0);
}

// --- churn backfill seams (satellite: dynamic-trees repair channel) --------

TEST(SequenceTrackerStartAt, SeatsJoinerAtLiveEdge) {
  SequenceTracker tr;
  tr.mark(0);
  tr.mark(7);
  tr.start_at(5);
  EXPECT_EQ(tr.gap_free_prefix(), 5);  // 0..4 forgiven, 5..6 still owed
  EXPECT_TRUE(tr.has(7));
  tr.mark(5);
  tr.mark(6);
  EXPECT_EQ(tr.gap_free_prefix(), 8);
  tr.start_at(3);  // never moves backwards
  EXPECT_EQ(tr.gap_free_prefix(), 8);
  // Seating exactly on contiguous ahead packets swallows them.
  SequenceTracker fresh;
  fresh.mark(9);
  fresh.mark(10);
  fresh.start_at(9);
  EXPECT_EQ(fresh.gap_free_prefix(), 11);
}

TEST(ChurnBackfillCaps, OnlyDynamicTreesOptsIn) {
  for (const scheme::Descriptor& d : scheme::all()) {
    EXPECT_EQ(d.caps.churn_backfill, d.id == Scheme::kDynamicTrees)
        << d.name;
  }
}

}  // namespace
}  // namespace streamcast::core
