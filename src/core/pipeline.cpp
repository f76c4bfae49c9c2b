#include "src/core/pipeline.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "src/metrics/buffers.hpp"
#include "src/scale/sketch.hpp"

namespace streamcast::core {

ObserverStack::ObserverStack(const net::Topology& topology,
                             const ObserverSpec& spec,
                             util::BudgetLedger* ledger)
    : delays_(spec.node_span, spec.window, ledger),
      neighbors_(spec.node_span, ledger) {
  if (spec.continuity) continuity_.emplace(delays_);
  if (spec.audit) auditor_.emplace(topology, spec.audit_options);
}

void ObserverStack::attach(sim::Engine& engine,
                           loss::RecoveryProtocol* recovery) {
  if (recovery == nullptr) {
    engine.add_observer(delays_);
    engine.add_observer(neighbors_);
  }
  if (auditor_) engine.add_observer(*auditor_);
  if (recovery != nullptr) {
    // Metrics observe the post-repair stream (repairs and FEC decodes count
    // as arrivals), so they attach to the recovery layer, not the engine.
    recovery->add_observer(delays_);
    recovery->add_observer(neighbors_);
    if (continuity_) recovery->add_observer(*continuity_);
  }
}

void ObserverStack::require_clean() {
  if (auditor_) auditor_->require_clean();
}

RunPipeline::RunPipeline(net::Topology& topology, sim::Protocol& protocol,
                         const ObserverSpec& observers,
                         loss::LossModel* loss_model,
                         loss::RecoveryProtocol* recovery)
    : ledger_(util::MemoryBudget{observers.scale.budget_bytes}),
      engine_(topology, protocol,
              sim::EngineOptions{.packet_window_hint = observers.window,
                                 .budget = &ledger_}),
      observers_(topology, observers, &ledger_),
      recovery_(recovery),
      window_(observers.window) {
  if (loss_model != nullptr) engine_.set_loss_model(loss_model);
  // The recovery layer observes the engine for drop reports and post-repair
  // fan-out, ahead of the auditor in the observer order.
  if (recovery_ != nullptr) engine_.add_observer(*recovery_);
  observers_.attach(engine_, recovery_);
}

void RunPipeline::run(Slot horizon, DrainPolicy drain) {
  engine_.run_until(horizon);
  if (recovery_ != nullptr && drain.max_drain > 0) {
    // Drain: keep simulating in small chunks until every window packet at
    // every receiver has a decided fate — arrived, or abandoned by a
    // delay-bounded policy that declared it unrecoverable — or the drain
    // budget runs out. Legacy policies never abandon, so for them the
    // predicate degenerates to all_gap_free and the drain behavior is
    // byte-identical to the historical loop.
    while (!recovery_->gaps_resolved(drain.from, drain.to, window_) &&
           drained_ < drain.max_drain) {
      const Slot chunk = std::min<Slot>(32, drain.max_drain - drained_);
      drained_ += chunk;
      engine_.run_until(horizon + drained_);
    }
  }
  end_ = horizon + drained_;
  observers_.require_clean();
}

QosReport aggregate_qos(const Aggregation& agg, const AggregateInputs& in,
                        NodeKey* incomplete, scale::ScaleSummary* summary) {
  QosReport report;
  report.scheme = agg.label;
  report.n = agg.report_n;
  report.d = agg.d;
  report.transmissions = in.stats.transmissions;
  report.slots_simulated = in.end;
  report.drops = in.stats.drops;
  report.retransmissions = in.stats.retransmissions;

  std::optional<scale::DistributionSketch> delay_sketch;
  std::optional<scale::DistributionSketch> buffer_sketch;
  if (summary != nullptr) {
    delay_sketch.emplace(scale::kSketchEpsilon);
    buffer_sketch.emplace(scale::kSketchEpsilon);
  }

  double delay_sum = 0;
  double buffer_sum = 0;
  NodeKey complete = 0;
  std::vector<Slot> row;
  for (const NodeKey key : agg.receivers) {
    const metrics::DelayRecorder& delays = in.stack_of(key).delays();
    const auto a = delays.playback_delay(key);
    if (!a) {
      if (!agg.skip_incomplete) {
        throw std::logic_error("receiver window incomplete");
      }
      if (incomplete != nullptr) ++*incomplete;
      continue;
    }
    report.worst_delay = std::max(report.worst_delay, *a);
    delay_sum += static_cast<double>(*a);
    delays.arrivals(key, row);
    const std::size_t occ = metrics::max_buffer_occupancy(row, *a);
    report.max_buffer = std::max(report.max_buffer, occ);
    buffer_sum += static_cast<double>(occ);
    ++complete;
    if (delay_sketch) {
      delay_sketch->add(*a);
      buffer_sketch->add(static_cast<std::int64_t>(occ));
    }
  }
  if (complete > 0) {
    report.average_delay = delay_sum / static_cast<double>(complete);
    report.average_buffer = buffer_sum / static_cast<double>(complete);
  }

  // Neighbor counts cover every receiver, complete window or not: partners
  // were observed either way.
  double neighbor_sum = 0;
  for (const NodeKey key : agg.receivers) {
    const std::size_t count = in.stack_of(key).neighbors().count(key);
    report.max_neighbors = std::max(report.max_neighbors, count);
    neighbor_sum += static_cast<double>(count);
  }
  if (!agg.receivers.empty()) {
    report.average_neighbors =
        neighbor_sum / static_cast<double>(agg.receivers.size());
  }

  if (summary != nullptr) {
    summary->nodes = agg.report_n;
    summary->epsilon = scale::kSketchEpsilon;
    summary->replayed = false;
    summary->budget_bytes = in.ledger != nullptr ? in.ledger->limit() : 0;
    summary->bytes_peak = in.ledger != nullptr ? in.ledger->peak() : 0;
    summary->delay = delay_sketch->summarize();
    summary->buffer = buffer_sketch->summarize();
  }
  return report;
}

QosReport RunPipeline::aggregate(const Aggregation& agg, NodeKey* incomplete,
                                 scale::ScaleSummary* summary) const {
  AggregateInputs in;
  in.stack_of = [this](NodeKey) -> const ObserverStack& { return observers_; };
  in.stats = engine_.stats();
  in.end = end_;
  in.ledger = &ledger_;
  return aggregate_qos(agg, in, incomplete, summary);
}

namespace {

/// What every receiver's replay probe reads, built once per fold. The
/// probes borrow it, so the startup context must not outlive it.
struct ReplaySource {
  const metrics::ContinuityRecorder& continuity;
  Slot end;
};

/// The view every receiver's startup policy decides from, less the
/// per-receiver fields (`first_arrival`, `replay`) the fold fills in.
policy::StartupContext make_startup_context(const ReplaySource& source,
                                            PacketId window, Slot worst_delay,
                                            Slot fixed_start,
                                            std::int64_t drops) {
  policy::StartupContext ctx;
  ctx.window = window;
  ctx.horizon = source.end;
  ctx.worst_delay = worst_delay;
  ctx.fixed_start = fixed_start;
  ctx.drops = drops;
  ctx.deliveries = source.continuity.data_deliveries();
  return ctx;
}

}  // namespace

LossSummary RunPipeline::loss_summary(const LossConfig& loss,
                                      const policy::StartupPolicy& startup,
                                      NodeKey from, NodeKey to,
                                      Slot worst_delay,
                                      StartupSummary* startup_out) const {
  if (recovery_ == nullptr) {
    throw std::logic_error("loss_summary requires the lossy wiring");
  }
  LossSummary summary;
  const policy::RecoveryStats& rs = recovery_->stats();
  summary.drops = engine_.stats().drops;
  summary.retransmissions = rs.retransmissions;
  summary.parity_transmissions = rs.parity_transmissions;
  summary.fec_decodes = rs.fec_decodes;
  summary.suppressed = rs.suppressed_causal + rs.suppressed_redundant;
  summary.nacks = rs.nacks;
  summary.redundancy_overhead = rs.redundancy_overhead();
  summary.all_gap_free = recovery_->all_gap_free(from, to, window_);
  summary.drain_slots = drained_;
  summary.max_erasure_run = rs.max_erasure_run;
  summary.guard_collisions = rs.guard_collisions;
  summary.unrecoverable = rs.unrecoverable;

  // One pass folds both the startup summary and the loss section's
  // playback figures: the policy's start per receiver, and the replay from
  // it. Policies are pure functions of the context, so this is the replay
  // the loss section would make on its own.
  const metrics::ContinuityRecorder* continuity = observers_.continuity();
  if (continuity == nullptr) return summary;
  StartupSummary fold;
  fold.policy = startup.name();
  fold.earliest_start = end_;
  double start_sum = 0;
  const ReplaySource source{*continuity, end_};
  policy::StartupContext ctx =
      make_startup_context(source, window_, worst_delay, loss.playback_start,
                           engine_.stats().drops);
  for (NodeKey x = from; x <= to; ++x) {
    const Slot first = continuity->first_arrival(x);
    ctx.first_arrival = first == metrics::kNeverArrived ? end_ : first;
    const auto probe = [&source, x](Slot candidate) {
      const auto r = source.continuity.report(x, candidate, source.end);
      return policy::PlaybackProbe{.stalls = r.stalls,
                                   .stall_slots = r.stall_slots,
                                   .undecodable = r.undecodable,
                                   .finish_slot = r.finish_slot};
    };
    // libstdc++'s std::function stores a functor of at most 16 trivially
    // copyable bytes in place; a larger one costs a heap allocation per
    // receiver.
    static_assert(sizeof(probe) <= 16 &&
                  std::is_trivially_copyable_v<decltype(probe)>);
    ctx.replay = probe;
    const Slot start = startup.start_slot(ctx);
    const auto cr = continuity->report(x, start, end_);
    fold.max_start = std::max(fold.max_start, start);
    fold.earliest_start = std::min(fold.earliest_start, start);
    start_sum += static_cast<double>(start);
    fold.stalls = std::max(fold.stalls, cr.stalls);
    fold.stall_slots = std::max(fold.stall_slots, cr.stall_slots);
    fold.undecodable += cr.undecodable;
    fold.max_finish = std::max(fold.max_finish, cr.finish_slot);
  }
  if (to >= from) {
    fold.average_start = start_sum / static_cast<double>(to - from + 1);
  }
  summary.stalls = fold.stalls;
  summary.stall_slots = fold.stall_slots;
  summary.undecodable = fold.undecodable;
  if (startup_out != nullptr) *startup_out = std::move(fold);
  return summary;
}

}  // namespace streamcast::core
