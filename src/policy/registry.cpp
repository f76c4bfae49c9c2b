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
    {.name = "nack", .caps = {}, .make = &make_recovery<NackPolicy>},
    {.name = "xor-parity",
     .caps = {},
     .make = &make_recovery<XorParityPolicy>},
    {.name = "streaming-code",
     .caps = {.bounded_recovery = true},
     .make = &make_recovery<StreamingCodePolicy>},
}};

/// The historical startup: the configured slot, else the run's worst
/// playback delay.
class FixedStartup final : public StartupPolicy {
 public:
  const char* name() const override { return "fixed"; }
  Slot start_slot(const StartupContext& ctx) const override {
    return fixed_slot(ctx);
  }
};

/// Start a one-slot prebuffer after the receiver's first arrival, doubling
/// it until the replay runs without a stall; capped at the fixed slot (a
/// replay from the fixed slot is the historical behavior, so the ramp can
/// only start earlier, never later).
class ProgressiveRampStartup final : public StartupPolicy {
 public:
  const char* name() const override { return "progressive-ramp"; }
  Slot start_slot(const StartupContext& ctx) const override {
    const Slot cap = fixed_slot(ctx);
    Slot wait = 1;
    while (true) {
      const Slot candidate = std::min<Slot>(ctx.first_arrival + wait, cap);
      if (candidate >= cap) return cap;
      if (ctx.replay(candidate).stalls == 0) return candidate;
      wait *= 2;
    }
  }
};

/// Prebuffer proportional to the observed loss fraction: a clean channel
/// starts one slot after the first arrival, a lossy one waits for repair
/// headroom, twice the window's expected losses.
class LossAdaptiveStartup final : public StartupPolicy {
 public:
  const char* name() const override { return "loss-adaptive"; }
  Slot start_slot(const StartupContext& ctx) const override {
    const Slot cap = fixed_slot(ctx);
    const double total =
        static_cast<double>(ctx.drops) + static_cast<double>(ctx.deliveries);
    const double fraction =
        total > 0 ? static_cast<double>(ctx.drops) / total : 0.0;
    const Slot prebuffer =
        1 + static_cast<Slot>(std::ceil(2.0 * fraction *
                                        static_cast<double>(ctx.window)));
    return std::min<Slot>(ctx.first_arrival + prebuffer, cap);
  }
};

template <typename P>
std::unique_ptr<StartupPolicy> make_startup(const StartupOptions&) {
  return std::make_unique<P>();
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
