// Machine-checked counterexample for DESIGN.md deviation 2: the paper's
// literal deletion restores tail placement (Step 2) but can break the mod-d
// congruence property the collision-free schedule depends on. Step 1 alone
// is always safe.
#include <gtest/gtest.h>

#include "src/multitree/greedy.hpp"
#include "src/multitree/structured.hpp"
#include "tests/support/churn_literal.hpp"

namespace streamcast::multitree {
namespace {

TEST(PaperLiteralDelete, StepOneAloneIsAlwaysResidueSafe) {
  // Non-boundary N (step 2 never runs): every deletion keeps survivors
  // congruent — the two swapped nodes exchange entire position sets.
  for (const int d : {2, 3, 4}) {
    for (const NodeKey n : {14, 20, 27, 44}) {
      if ((n - 1) % d == 0) continue;  // keep to non-boundary sizes
      const Forest f = build_greedy(n, d);
      for (NodeKey victim = 1; victim <= n; ++victim) {
        const auto out = paper_literal_delete(f, victim);
        EXPECT_FALSE(out.boundary);
        EXPECT_TRUE(survivors_congruent(out.forest, victim))
            << "n=" << n << " d=" << d << " victim=" << victim;
        EXPECT_LE(out.swaps, d);  // paper: step 1 costs at most d
      }
    }
  }
}

TEST(PaperLiteralDelete, StepTwoBreaksCongruenceSomewhere) {
  // Boundary sizes (d | N-1): scan for concrete witnesses where the
  // paper's restore-property swaps leave two trees delivering to the same
  // node in the same slot residue — the failure our re-derivation path
  // avoids.
  int witnesses = 0;
  int safe = 0;
  std::string first_witness;
  for (const int d : {2, 3, 4}) {
    for (NodeKey n = 2 * d + 1; n <= 80; n += d) {
      ASSERT_EQ((n - 1) % d, 0);
      for (const bool greedy : {true, false}) {
        const Forest f = greedy ? build_greedy(n, d) : build_structured(n, d);
        for (NodeKey victim = 1; victim <= n; ++victim) {
          const auto out = paper_literal_delete(f, victim);
          ASSERT_TRUE(out.boundary);
          if (survivors_congruent(out.forest, victim)) {
            ++safe;
          } else {
            ++witnesses;
            if (first_witness.empty()) {
              first_witness = "N=" + std::to_string(n) +
                              " d=" + std::to_string(d) + " victim=" +
                              std::to_string(victim) +
                              (greedy ? " (greedy)" : " (structured)");
            }
          }
          // The paper's swap accounting still holds: at most d + d^2.
          EXPECT_LE(out.swaps, d + d * d);
        }
      }
    }
  }
  // The deviation is real: concrete witnesses exist. (In fact, on this
  // padded realization every scanned boundary deletion broke congruence —
  // the restore-property swaps are not residue-aware at all.)
  EXPECT_GT(witnesses, 0) << "expected at least one congruence violation";
  EXPECT_GT(witnesses, safe);
  RecordProperty("first_witness", first_witness);
  RecordProperty("witnesses", static_cast<int>(witnesses));
  RecordProperty("safe", static_cast<int>(safe));
}

TEST(PaperLiteralDelete, RejectsBadVictim) {
  const Forest f = build_greedy(10, 2);
  EXPECT_THROW(paper_literal_delete(f, 0), std::invalid_argument);
  EXPECT_THROW(paper_literal_delete(f, 11), std::invalid_argument);
}

}  // namespace
}  // namespace streamcast::multitree
