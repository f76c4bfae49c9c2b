// streamcast: hot-path (lint: hot-path-alloc applies to this file)
#include "src/scale/sketch.hpp"

#include <algorithm>
#include <array>
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
  sort_batch();
  n_ += static_cast<std::int64_t>(buffer_.size());
  // Rank-uncertainty cap after this batch lands. New interior tuples take
  // Δ = max_err - 1 (the classic insert), extremes take Δ = 0 so min/max
  // stay exact.
  const auto max_err = static_cast<std::int64_t>(
      std::floor(2.0 * epsilon_ * static_cast<double>(n_)));
  const std::size_t total = summary_.size() + buffer_.size();
  merge_batch(std::max<std::int64_t>(0, max_err - 1));
  compress(max_err);
  buffer_.clear();
  charge_growth(total);
}

// The range is taken in std::uint64_t, where max − min cannot overflow.
void GkSketch::sort_batch() {
  const auto [lo, hi] = std::minmax_element(buffer_.begin(), buffer_.end());
  const auto base = static_cast<std::uint64_t>(*lo);
  const std::uint64_t span = static_cast<std::uint64_t>(*hi) - base;
  if (span >= kCountingSortValues) {
    std::sort(buffer_.begin(), buffer_.end());
    return;
  }
  std::array<std::size_t, kCountingSortValues> counts{};
  for (const std::int64_t v : buffer_) {
    ++counts[static_cast<std::uint64_t>(v) - base];
  }
  auto out = buffer_.begin();
  for (std::uint64_t i = 0; i <= span; ++i) {
    out = std::fill_n(out, counts[i], static_cast<std::int64_t>(base + i));
  }
}

// In place, from the back, one stretch per distinct batch value: the
// summary tuples above the value move up past the batch values still to
// place (one copy), and the value's copies land just below them. On equal
// values the summary tuple comes first, so a stretch starts at the
// summary's upper bound of the value.
void GkSketch::merge_batch(std::int64_t interior) {
  std::size_t si = summary_.size();
  std::size_t bi = buffer_.size();
  const std::size_t total = si + bi;
  const bool batch_first = si == 0 || buffer_.front() < summary_.front().v;
  const bool batch_last = si == 0 || buffer_.back() >= summary_.back().v;
  summary_.reserve(total);
  summary_.resize(total);
  const auto below = [](std::int64_t v, const Tuple& t) { return v < t.v; };
  const auto at = [this](std::size_t i) {
    return summary_.begin() + static_cast<std::ptrdiff_t>(i);
  };
  while (bi > 0) {
    const std::int64_t v = buffer_[bi - 1];
    std::size_t run = bi - 1;
    while (run > 0 && buffer_[run - 1] == v) --run;
    const auto above = static_cast<std::size_t>(
        std::upper_bound(summary_.begin(), at(si), v, below) -
        summary_.begin());
    std::copy_backward(at(above), at(si), at(si + bi));
    std::fill(at(above + run), at(above + bi),
              Tuple{.v = v, .g = 1, .delta = interior});
    si = above;
    bi = run;
  }
  // A batch value landing at either end takes Δ = 0.
  if (batch_first) summary_.front().delta = 0;
  if (batch_last) summary_.back().delta = 0;
}

// Fold tuple i into its successor while the combined rank mass stays within
// the error cap, right to left, writing the kept tuples to the back of the
// array: every kept tuple has consumed at least one input and `carry` holds
// one more, so a write never lands on an unread slot. The last tuple only
// absorbs and the first never folds, so it is peeled off the loop.
void GkSketch::compress(std::int64_t max_err) {
  const std::size_t total = summary_.size();
  std::size_t out = total;
  Tuple carry = summary_[total - 1];
  for (std::size_t i = total - 1; i-- > 1;) {
    const Tuple cur = summary_[i];
    if (cur.g + carry.g + carry.delta <= max_err) {
      carry.g += cur.g;
    } else {
      summary_[--out] = carry;
      carry = cur;
    }
  }
  if (total > 1) {
    summary_[--out] = carry;
    carry = summary_[0];
  }
  summary_[--out] = carry;
  summary_.erase(summary_.begin(),
                 summary_.begin() + static_cast<std::ptrdiff_t>(out));
}

std::int64_t GkSketch::quantile(double q) {
  flush();
  if (n_ == 0) throw std::logic_error("quantile of an empty sketch");
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("quantile q not in [0,1]");
  }
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
