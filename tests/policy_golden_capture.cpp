// Offline golden-capture utility for the policy-layer parity suites.
//
// With no argument, prints the complete tests/policy_parity_golden.inc to
// stdout: every cell of policy_parity_cells() run through
// StreamingSession::run_lossy() and every cell of policy_shard_cells()
// through run(), serialized with core::serialize(). That golden was captured
// from the tree ONE COMMIT BEFORE the src/policy extraction landed (the
// monolithic RecoveryProtocol with its RecoveryMode switches), so the parity
// test proves the refactor byte-identical.
//
// With the argument `recovery-state`, prints tests/recovery_state_golden.inc
// instead: every cell of recovery_state_cells() rendered by
// render_recovery_cell(). That golden was captured from the tree before the
// recovery host's state moved to flat per-receiver arrays.
//
// Regenerate only for an intentional behavior change:
//
//   cmake --build build -j --target policy_golden_capture
//   ./build/tests/policy_golden_capture > tests/policy_parity_golden.inc
//   ./build/tests/policy_golden_capture recovery-state >
//       tests/recovery_state_golden.inc

#include <iostream>
#include <string_view>

#include "src/core/report.hpp"
#include "src/core/session.hpp"
#include "tests/policy_parity_cells.hpp"
#include "tests/recovery_state_cells.hpp"

namespace {

using namespace streamcast;

void print_policy_parity() {
  std::cout << "// Golden serialized reports for "
               "tests/policy_parity_cells.hpp, captured from\n"
               "// the pre-policy-layer tree (monolithic "
               "loss::RecoveryProtocol, fixed\n"
               "// playback-start slot). Regenerate only for an intentional "
               "behavior change\n"
               "// via tests/policy_golden_capture.cpp.\n"
               "inline constexpr const char* kPolicyParityGolden = "
               "R\"GOLD(\n";
  for (const core::PolicyParityCell& cell : core::policy_parity_cells()) {
    const core::StreamingSession session(cell.cfg);
    const core::LossRunResult r = session.run_lossy();
    std::cout << "=== " << cell.id << "\n" << core::serialize(r) << "\n";
  }
  for (const core::PolicyParityCell& cell : core::policy_shard_cells()) {
    const core::StreamingSession session(cell.cfg);
    const core::QosReport q = session.run();
    std::cout << "=== " << cell.id << "\n" << core::serialize(q) << "\n";
  }
  std::cout << ")GOLD\";\n";
}

void print_recovery_state() {
  std::cout << "// Golden reports for tests/recovery_state_cells.hpp, "
               "captured from the tree\n"
               "// before the recovery host's state moved to flat "
               "per-receiver arrays.\n"
               "// Regenerate only for an intentional behavior change via\n"
               "// tests/policy_golden_capture.cpp (argument "
               "`recovery-state`).\n"
               "inline constexpr const char* kRecoveryStateGolden = "
               "R\"GOLD(\n";
  for (const core::RecoveryStateCell& cell : core::recovery_state_cells()) {
    const core::LossRunResult r = core::StreamingSession(cell.cfg).run_lossy();
    std::cout << "=== " << cell.id << "\n"
              << core::render_recovery_cell(cell, r) << "\n";
  }
  std::cout << ")GOLD\";\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string_view(argv[1]) == "recovery-state") {
    print_recovery_state();
  } else {
    print_policy_parity();
  }
  return 0;
}
