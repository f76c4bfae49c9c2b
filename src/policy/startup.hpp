// Startup-policy strategy interface (DESIGN.md §15).
//
// The continuity metrics replay playback from a start slot; historically
// that slot was hard-wired to LossConfig::playback_start (or the run's
// worst playback delay). A StartupPolicy chooses the slot per receiver
// from what the run observed — letting the delay/smoothness tradeoff of
// Joshi–Kochman–Wornell (arXiv:1405.3697) be explored along the startup
// axis too:
//
//   fixed             the historical behavior: the configured slot, else
//                     the run's worst playback delay. Byte-identical to
//                     the pre-policy pipeline (golden-pinned).
//   progressive-ramp  start a one-slot prebuffer after the receiver's
//                     first arrival and double it until a replay runs
//                     without a stall; never later than `fixed`.
//   loss-adaptive     prebuffer proportional to the observed loss
//                     fraction (1 + ceil(2 * loss * window) slots);
//                     never later than `fixed`.
//
// Policies are pure functions of the per-receiver StartupContext, so the
// choice is deterministic and replayable. They act on lossy runs only
// (core::run_session's startup section), which never replay in closed
// form: adaptive policies consult the run's own observations.
#pragma once

#include <functional>
#include <string>

#include "src/sim/packet.hpp"

namespace streamcast::policy {

using sim::NodeKey;
using sim::PacketId;
using sim::Slot;

/// Startup configuration carried by core::SessionConfig.
struct StartupOptions {
  /// Registry entry: "fixed", "progressive-ramp", or "loss-adaptive".
  std::string policy = "fixed";
};

/// Outcome of replaying playback from one candidate start slot.
struct PlaybackProbe {
  int stalls = 0;
  Slot stall_slots = 0;
  PacketId undecodable = 0;
  Slot finish_slot = 0;
};

/// Everything a policy may consult for one receiver. `replay` re-runs the
/// continuity replay at a candidate start slot (cheap: O(window)).
struct StartupContext {
  PacketId window = 0;
  /// Last slot simulated (horizon + drain).
  Slot horizon = 0;
  /// The run's worst playback delay over complete receivers.
  Slot worst_delay = 0;
  /// LossConfig::playback_start (-1 = unset).
  Slot fixed_start = -1;
  /// Earliest arrival of any window packet at this receiver (horizon when
  /// nothing arrived).
  Slot first_arrival = 0;
  /// Run-wide loss observations for the adaptive policy.
  std::int64_t drops = 0;
  std::int64_t deliveries = 0;
  std::function<PlaybackProbe(Slot)> replay;
};

class StartupPolicy {
 public:
  virtual ~StartupPolicy() = default;

  virtual const char* name() const = 0;

  /// The playback start slot for this receiver.
  virtual Slot start_slot(const StartupContext& ctx) const = 0;

 protected:
  /// The historical fixed slot: the configured one, else the run's worst
  /// playback delay. Adaptive policies use it as their never-later-than
  /// cap, so they can only improve on the fixed startup.
  static Slot fixed_slot(const StartupContext& ctx) {
    return ctx.fixed_start >= 0 ? ctx.fixed_start : ctx.worst_delay;
  }
};

}  // namespace streamcast::policy
