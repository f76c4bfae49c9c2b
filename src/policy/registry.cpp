#include "src/policy/registry.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/policy/nack.hpp"
#include "src/policy/streaming_code.hpp"
#include "src/policy/xor_parity.hpp"

namespace streamcast::policy {

namespace {

/// No repair: gaps stay open and are accounted (the base-class defaults
/// are exactly the strategy-independent behavior).
class NonePolicy final : public RecoveryPolicy {
 public:
  using RecoveryPolicy::RecoveryPolicy;
  const char* name() const override { return "none"; }
};

template <typename P>
std::unique_ptr<RecoveryPolicy> make_recovery(
    const RecoveryPolicyOptions& options) {
  return std::make_unique<P>(options);
}

constexpr std::array<RecoveryPolicyDescriptor, 4> kRecoveryRegistry{{
    {.name = "none", .caps = {}, .make = &make_recovery<NonePolicy>},
    {.name = "nack",
     .caps = {.reverse_channel = true, .closes_silent_gaps = true},
     .make = &make_recovery<NackPolicy>},
    {.name = "xor-parity",
     .caps = {.emits_parity = true},
     .make = &make_recovery<XorParityPolicy>},
    {.name = "streaming-code",
     .caps = {.emits_parity = true, .bounded_recovery = true},
     .make = &make_recovery<StreamingCodePolicy>},
}};

/// The historical startup: the configured slot, else the run's worst
/// playback delay.
class FixedStartup final : public StartupPolicy {
 public:
  using StartupPolicy::StartupPolicy;
  const char* name() const override { return "fixed"; }
  Slot start_slot(const StartupContext& ctx) const override {
    return fixed_slot(ctx);
  }
};

/// Start a small prebuffer after the receiver's first arrival, doubling it
/// until the replay meets the stall budget; capped at the fixed slot (a
/// replay from the fixed slot is the historical behavior, so the ramp can
/// only start earlier, never later).
class ProgressiveRampStartup final : public StartupPolicy {
 public:
  using StartupPolicy::StartupPolicy;
  const char* name() const override { return "progressive-ramp"; }
  Slot start_slot(const StartupContext& ctx) const override {
    const Slot cap = fixed_slot(ctx);
    Slot wait = std::max<Slot>(options().ramp_initial, 1);
    while (true) {
      const Slot candidate = std::min<Slot>(ctx.first_arrival + wait, cap);
      if (candidate >= cap) return cap;
      if (ctx.replay(candidate).stalls <= options().ramp_stall_budget) {
        return candidate;
      }
      wait *= 2;
    }
  }
};

/// Prebuffer proportional to the observed loss fraction: a clean channel
/// starts almost immediately, a lossy one waits for repair headroom.
class LossAdaptiveStartup final : public StartupPolicy {
 public:
  using StartupPolicy::StartupPolicy;
  const char* name() const override { return "loss-adaptive"; }
  Slot start_slot(const StartupContext& ctx) const override {
    const Slot cap = fixed_slot(ctx);
    const double total =
        static_cast<double>(ctx.drops) + static_cast<double>(ctx.deliveries);
    const double fraction =
        total > 0 ? static_cast<double>(ctx.drops) / total : 0.0;
    const Slot prebuffer =
        options().adapt_min +
        static_cast<Slot>(std::ceil(options().adapt_safety * fraction *
                                    static_cast<double>(ctx.window)));
    return std::min<Slot>(ctx.first_arrival + prebuffer, cap);
  }
};

template <typename P>
std::unique_ptr<StartupPolicy> make_startup(const StartupOptions& options) {
  return std::make_unique<P>(options);
}

constexpr std::array<StartupPolicyDescriptor, 3> kStartupRegistry{{
    {.name = "fixed", .make = &make_startup<FixedStartup>},
    {.name = "progressive-ramp",
     .make = &make_startup<ProgressiveRampStartup>},
    {.name = "loss-adaptive", .make = &make_startup<LossAdaptiveStartup>},
}};

}  // namespace

std::span<const RecoveryPolicyDescriptor> recovery_policies() {
  return kRecoveryRegistry;
}

const RecoveryPolicyDescriptor& recovery_policy(std::string_view name) {
  const auto it =
      std::ranges::find_if(kRecoveryRegistry, [&](const auto& desc) {
        return name == desc.name;
      });
  if (it == kRecoveryRegistry.end()) {
    throw std::invalid_argument("unknown recovery policy: " +
                                std::string(name));
  }
  return *it;
}

std::span<const StartupPolicyDescriptor> startup_policies() {
  return kStartupRegistry;
}

const StartupPolicyDescriptor& startup_policy(std::string_view name) {
  const auto it = std::ranges::find_if(kStartupRegistry, [&](const auto& desc) {
    return name == desc.name;
  });
  if (it == kStartupRegistry.end()) {
    throw std::invalid_argument("unknown startup policy: " +
                                std::string(name));
  }
  return *it;
}

}  // namespace streamcast::policy
