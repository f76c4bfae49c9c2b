// streamcast: hot-path (lint: hot-path-alloc applies to this file)
// Streaming distribution sketches for the million-node scale path
// (DESIGN.md §11).
//
// A run that asks for distribution summaries (core::RunResult::scale)
// folds the per-receiver delays and buffer occupancies into two O(polylog)
// streaming summaries per distribution:
//
//  * StreamingMoments — exact count / min / max / mean. The mean sums
//    doubles in feed order, so it is bit-identical to what the exact
//    aggregation arithmetic would produce over the same values.
//  * GkSketch — a Greenwald–Khanna ε-approximate quantile summary.
//    quantile(q) returns a stored value whose rank is within ε·n of the
//    target rank; memory is O((1/ε)·log(ε·n)). The sketch is fully
//    deterministic (no sampling, no hashing), so sweeps that include it
//    stay byte-reproducible under the determinism contract.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "src/util/budget.hpp"

namespace streamcast::scale {

/// Exact streaming count/min/max/mean over int64 observations.
class StreamingMoments {
 public:
  void add(std::int64_t v) {
    ++count_;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
    sum_ += static_cast<double>(v);
  }

  std::int64_t count() const { return count_; }
  /// Precondition for min/max/mean: count() > 0 (asserted via throw).
  std::int64_t min() const;
  std::int64_t max() const;
  double mean() const;

 private:
  std::int64_t count_ = 0;
  std::int64_t min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ = std::numeric_limits<std::int64_t>::min();
  double sum_ = 0;
};

/// Greenwald–Khanna quantile summary with rank-error bound ε·n.
///
/// Inserts are buffered and merged in sorted batches (the classic practical
/// variant): the summary keeps tuples (v, g, Δ) where g is the rank mass of
/// the tuple and Δ bounds its rank uncertainty; adjacent tuples are merged
/// while g_i + g_{i+1} + Δ_{i+1} stays under 2εn. The first and last tuples
/// are never merged, so min and max are exact.
class GkSketch {
 public:
  /// `epsilon` in (0, 0.5); smaller = tighter quantiles, more memory.
  /// `ledger`, when non-null, is charged for summary/buffer growth.
  explicit GkSketch(double epsilon, util::BudgetLedger* ledger = nullptr);

  void add(std::int64_t v);

  /// Value whose rank is within ε·count() of clamp(ceil(q·count), 1, count).
  /// Flushes the insert buffer; throws std::logic_error on an empty sketch.
  std::int64_t quantile(double q);

  std::int64_t count() const { return n_; }
  double epsilon() const { return epsilon_; }
  /// Tuples currently held (after the last flush) — the memory figure the
  /// O((1/ε)·log(εn)) bound is about.
  std::size_t summary_size() const { return summary_.size(); }

 private:
  struct Tuple {
    std::int64_t v = 0;
    std::int64_t g = 0;
    std::int64_t delta = 0;
  };

  /// Merges the sorted insert buffer into the summary and compresses it,
  /// in place: once the summary is sized, a flush allocates nothing.
  void flush();
  /// Charges the ledger up to `tuples` summary tuples (the summary before
  /// the flush plus the batch, the array the flush works in) and the
  /// buffer's capacity, as a running maximum.
  void charge_growth(std::size_t tuples);

  double epsilon_;
  util::BudgetLedger* ledger_;
  std::size_t buffer_capacity_;
  std::int64_t n_ = 0;
  // lint: allow(hot-path-alloc) — sized up to summary + batch, reused
  std::vector<Tuple> summary_;
  // lint: allow(hot-path-alloc) — one batch, cleared and reused per flush
  std::vector<std::int64_t> buffer_;
  std::size_t charged_bytes_ = 0;
};

/// Per-distribution result block of a scale run: exact moments plus the
/// sketched p50/p95/p99.
struct QuantileSummary {
  std::int64_t count = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  double mean = 0;
  std::int64_t p50 = 0;
  std::int64_t p95 = 0;
  std::int64_t p99 = 0;
};

/// Moments + GK sketch fed together; summarize() packages both.
class DistributionSketch {
 public:
  explicit DistributionSketch(double epsilon,
                              util::BudgetLedger* ledger = nullptr)
      : gk_(epsilon, ledger) {}

  void add(std::int64_t v) {
    moments_.add(v);
    gk_.add(v);
  }

  const StreamingMoments& moments() const { return moments_; }
  GkSketch& sketch() { return gk_; }

  /// Zeroed QuantileSummary when nothing was fed (an all-incomplete run).
  QuantileSummary summarize();

 private:
  StreamingMoments moments_;
  GkSketch gk_;
};

}  // namespace streamcast::scale
