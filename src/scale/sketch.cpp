// streamcast: hot-path (lint: hot-path-alloc applies to this file)
#include "src/scale/sketch.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace streamcast::scale {

std::int64_t StreamingMoments::min() const {
  if (count_ == 0) throw std::logic_error("moments of an empty stream");
  return min_;
}

std::int64_t StreamingMoments::max() const {
  if (count_ == 0) throw std::logic_error("moments of an empty stream");
  return max_;
}

double StreamingMoments::mean() const {
  if (count_ == 0) throw std::logic_error("moments of an empty stream");
  return sum_ / static_cast<double>(count_);
}

GkSketch::GkSketch(double epsilon, util::BudgetLedger* ledger)
    : epsilon_(epsilon), ledger_(ledger) {
  if (!(epsilon > 0.0) || epsilon >= 0.5) {
    throw std::invalid_argument("GkSketch epsilon must be in (0, 0.5)");
  }
  buffer_capacity_ = std::max<std::size_t>(
      16, static_cast<std::size_t>(std::floor(1.0 / (2.0 * epsilon))));
}

void GkSketch::add(std::int64_t v) {
  buffer_.push_back(v);
  if (buffer_.size() >= buffer_capacity_) flush();
}

void GkSketch::charge_growth(std::size_t tuples) {
  if (ledger_ == nullptr) return;
  const std::size_t bytes =
      tuples * sizeof(Tuple) + buffer_.capacity() * sizeof(std::int64_t);
  if (bytes > charged_bytes_) {
    ledger_->charge("scale/quantile-sketch", bytes - charged_bytes_);
    charged_bytes_ = bytes;
  }
}

void GkSketch::flush() {
  if (buffer_.empty()) return;
  std::sort(buffer_.begin(), buffer_.end());
  n_ += static_cast<std::int64_t>(buffer_.size());
  // Rank-uncertainty cap after this batch lands. New interior tuples take
  // Δ = max_err - 1 (the classic insert), extremes take Δ = 0 so min/max
  // stay exact.
  const auto max_err = static_cast<std::int64_t>(
      std::floor(2.0 * epsilon_ * static_cast<double>(n_)));
  const std::int64_t interior = std::max<std::int64_t>(0, max_err - 1);

  // One right-to-left pass merges the sorted batch into the summary and
  // compresses the result, writing into the same array from the back: a
  // forward merge followed by a right-to-left compress, fused. Every
  // emitted tuple has consumed at least one input and `carry` holds one
  // more, so a write never lands on an unread summary slot.
  const std::size_t total = summary_.size() + buffer_.size();
  summary_.reserve(total);
  std::size_t si = summary_.size();
  std::size_t bi = buffer_.size();
  summary_.resize(total);
  // The merged tuple at forward index si + bi - 1, consumed from the back:
  // the batch value when it is >= the summary value, since forward order
  // puts the summary tuple first among equals.
  const auto next = [&] {
    const std::size_t at = si + bi - 1;
    if (bi > 0 && (si == 0 || buffer_[bi - 1] >= summary_[si - 1].v)) {
      --bi;
      const bool extreme = at == 0 || at == total - 1;
      return Tuple{.v = buffer_[bi], .g = 1, .delta = extreme ? 0 : interior};
    }
    return summary_[--si];
  };

  // Fold tuple i into its successor while the combined rank mass stays
  // within the error cap. The first tuple never folds and the last one
  // only absorbs, keeping the extremes exact.
  std::size_t out = total;
  Tuple carry = next();
  for (std::size_t i = total - 1; i-- > 0;) {
    const Tuple cur = next();
    if (i > 0 && cur.g + carry.g + carry.delta <= max_err) {
      carry.g += cur.g;
    } else {
      summary_[--out] = carry;
      carry = cur;
    }
  }
  summary_[--out] = carry;
  summary_.erase(summary_.begin(),
                 summary_.begin() + static_cast<std::ptrdiff_t>(out));
  buffer_.clear();
  charge_growth(total);
}

std::int64_t GkSketch::quantile(double q) {
  flush();
  if (n_ == 0) throw std::logic_error("quantile of an empty sketch");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile q not in [0,1]");
  const std::int64_t r = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n_))), 1,
      n_);
  const auto tolerance = static_cast<std::int64_t>(
      std::floor(epsilon_ * static_cast<double>(n_)));
  std::int64_t rmin = 0;
  // First tuple whose rank envelope [rmin, rmin + Δ] surrounds r within the
  // ε·n tolerance (one always exists by the compression invariant); the
  // closest-midpoint tuple is kept as a safety net.
  std::int64_t best_v = summary_.front().v;
  std::int64_t best_dist = std::numeric_limits<std::int64_t>::max();
  for (const Tuple& t : summary_) {
    rmin += t.g;
    const std::int64_t rmax = rmin + t.delta;
    if (r - rmin <= tolerance && rmax - r <= tolerance) return t.v;
    const std::int64_t mid = (rmin + rmax) / 2;
    const std::int64_t dist = mid > r ? mid - r : r - mid;
    if (dist < best_dist) {
      best_dist = dist;
      best_v = t.v;
    }
  }
  return best_v;
}

QuantileSummary DistributionSketch::summarize() {
  QuantileSummary s;
  s.count = moments_.count();
  if (s.count == 0) return s;
  s.min = moments_.min();
  s.max = moments_.max();
  s.mean = moments_.mean();
  s.p50 = gk_.quantile(0.50);
  s.p95 = gk_.quantile(0.95);
  s.p99 = gk_.quantile(0.99);
  return s;
}

}  // namespace streamcast::scale
