// Explicit memory budgets for the million-node scale path (DESIGN.md §11).
//
// Large-N runs must fail fast with a structured error instead of OOM-killing
// the process: every subsystem that allocates O(N) or O(N*W) state at scale
// (the engine's flat packet bitmaps, the metric recorders' arrival deltas,
// the quantile sketches) charges a shared BudgetLedger before allocating.
// The ledger throws BudgetExceeded — carrying the component name and the
// exact byte counts — the moment a charge would cross the caller's ceiling.
#pragma once

#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>

namespace streamcast::util {

/// Caller-declared ceiling on the bytes a run may allocate for per-node
/// state. The default leaves every historical configuration untouched while
/// still turning a runaway allocation into a structured error.
struct MemoryBudget {
  std::size_t bytes = std::size_t{1} << 31;  // 2 GiB
};

/// Thrown when a charge would exceed the budget. Structured: the failing
/// component and the exact requested/used/limit byte counts are preserved so
/// callers can report (or raise the budget) without parsing the message.
class BudgetExceeded : public std::runtime_error {
 public:
  BudgetExceeded(std::string_view component, std::size_t requested,
                 std::size_t used, std::size_t limit);

  const std::string& component() const { return component_; }
  std::size_t requested() const { return requested_; }
  std::size_t used() const { return used_; }
  std::size_t limit() const { return limit_; }

 private:
  std::string component_;
  std::size_t requested_ = 0;
  std::size_t used_ = 0;
  std::size_t limit_ = 0;
};

/// Running account of scale-path allocations against one MemoryBudget.
/// charge() throws before the allocation happens; release() credits bytes
/// back when a structure is re-laid-out (the peak watermark keeps the true
/// high-water figure for reports).
///
/// charge() and release() serialize on a mutex, so threads may share a
/// ledger: the closed-form replay's two sketch drains charge one. A ledger
/// that only charges ends with peak() equal to the sum of its charges in any
/// interleaving; when two threads' charges would both overrun, which one
/// throws may vary, and only that. Read used() and peak() once the charging
/// threads have joined.
class BudgetLedger {
 public:
  explicit BudgetLedger(MemoryBudget budget) : limit_(budget.bytes) {}

  /// Accounts `bytes` to `component`; throws BudgetExceeded (and charges
  /// nothing) if the total would exceed the budget.
  void charge(std::string_view component, std::size_t bytes);

  /// Credits bytes back (freed or superseded allocations). Clamped at zero.
  void release(std::size_t bytes);

  std::size_t used() const { return used_; }
  /// High-water mark of used() over the ledger's lifetime.
  std::size_t peak() const { return peak_; }
  std::size_t limit() const { return limit_; }

 private:
  std::size_t limit_ = 0;
  std::mutex mutex_;  // guards used_ and peak_
  std::size_t used_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace streamcast::util
