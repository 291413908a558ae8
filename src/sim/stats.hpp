// Statistics accumulators used by the benchmark harness.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

namespace nicmcast::sim {

/// Streaming mean / variance / extrema (Welford's algorithm); O(1) memory.
class OnlineStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  /// Folds another accumulator in (Chan's parallel Welford update), so
  /// per-thread / per-scenario stats can be combined without re-streaming
  /// the samples.  Exact to floating-point roundoff.
  void merge(const OnlineStats& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    const auto n = static_cast<double>(n_);
    const auto m = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    mean_ += delta * m / (n + m);
    m2_ += other.m2_ + delta * delta * n * m / (n + m);
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Sample collector with percentiles; keeps all samples.
class Series {
 public:
  void add(double x) {
    samples_.push_back(x);
    stats_.add(x);
    sorted_stale_ = true;
  }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] double mean() const { return stats_.mean(); }
  [[nodiscard]] double min() const { return stats_.min(); }
  [[nodiscard]] double max() const { return stats_.max(); }
  [[nodiscard]] double stddev() const { return stats_.stddev(); }

  /// Linear-interpolated percentile, p in [0, 100].  The sorted copy is
  /// cached, so repeated percentile/median calls sort once per batch of
  /// adds instead of once per call.
  [[nodiscard]] double percentile(double p) const {
    if (samples_.empty()) {
      throw std::logic_error("percentile of empty series");
    }
    if (sorted_stale_) {
      sorted_ = samples_;
      std::sort(sorted_.begin(), sorted_.end());
      sorted_stale_ = false;
    }
    const double rank =
        p / 100.0 * static_cast<double>(sorted_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, sorted_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted_[lo] + (sorted_[hi] - sorted_[lo]) * frac;
  }

  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
  OnlineStats stats_;
  // Lazily maintained sorted view for percentile(); invalidated by add().
  mutable std::vector<double> sorted_;
  mutable bool sorted_stale_ = true;
};

}  // namespace nicmcast::sim
