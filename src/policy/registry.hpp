// Static policy registries (DESIGN.md §15): one descriptor per recovery
// strategy and per startup strategy, mirroring the scheme registry one
// layer up. The session validates configurations against the capability
// flags instead of switching on policy names; the policy-dispatch lint
// (tools/lint_ast.py) fails CI on a `case Recovery...` arm anywhere outside
// src/policy/, so dispatch stays centralized here by construction.
#pragma once

#include <memory>
#include <span>
#include <string_view>

#include "src/policy/recovery.hpp"
#include "src/policy/startup.hpp"

namespace streamcast::policy {

/// What a recovery strategy guarantees. The session validates the
/// scheme x policy combination against these flags.
struct RecoveryPolicyCaps {
  /// Recovery is delay-bounded: a gap's fate (decoded or abandoned) is
  /// decided within a fixed number of channel uses, so the drain loop may
  /// stop once the policy reports exhausted(). Incompatible with
  /// demand-driven schemes, whose silent gaps only a feedback sweep finds.
  bool bounded_recovery = false;
};

struct RecoveryPolicyDescriptor {
  const char* name;
  RecoveryPolicyCaps caps;
  std::unique_ptr<RecoveryPolicy> (*make)(const RecoveryPolicyOptions&);
};

/// Every registered recovery policy: none, nack, xor-parity,
/// streaming-code.
std::span<const RecoveryPolicyDescriptor> recovery_policies();

/// Lookup by registry name; throws std::invalid_argument on an unknown
/// name.
const RecoveryPolicyDescriptor& recovery_policy(std::string_view name);

struct StartupPolicyDescriptor {
  const char* name;
  std::unique_ptr<StartupPolicy> (*make)(const StartupOptions&);
};

/// Every registered startup policy: fixed, progressive-ramp,
/// loss-adaptive.
std::span<const StartupPolicyDescriptor> startup_policies();

/// Lookup by registry name; throws std::invalid_argument on an unknown
/// name.
const StartupPolicyDescriptor& startup_policy(std::string_view name);

}  // namespace streamcast::policy
