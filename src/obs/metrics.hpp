// Observability substrate: counters, gauges, and log2 latency histograms in
// a registry keyed by (component, name).
//
// Design constraints, in priority order:
//
//  1. Zero perturbation. Recording writes plain memory and never reads a
//     clock, allocates, or charges simulated CPU, so a run with metrics
//     attached is event-for-event identical to a run without them
//     (tests/obs_determinism_test.cpp pins this as an invariant — every
//     seed-identical A/B experiment in the repo depends on it).
//  2. Zero heap allocation on the hot path. Histograms are fixed arrays of
//     buckets; registry lookups happen once at wiring time and hand back
//     stable pointers that instrumentation sites keep.
//  3. Mergeable. Bucket counts, counters, and extrema combine across nodes
//     (and across rings) so a cluster-wide latency distribution is the
//     element-wise sum of the per-node ones, with quantiles computed after
//     the merge — which is exactly as accurate as recording into one shared
//     histogram would have been.
//
// Histogram buckets are powers of two: bucket i counts values in
// [2^i, 2^(i+1)). Quantile estimates interpolate linearly inside the bucket,
// so the error is bounded by the bucket width (a fixed relative error of at
// most 2x, typically far less; tests/histogram_property_test.cpp checks the
// bound against a sorted-vector oracle). The true maximum and minimum are
// tracked exactly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace accelring::obs {

using util::Nanos;

/// Monotonic event count. merge() sums.
class Counter {
 public:
  void inc(uint64_t n = 1) { value_ += n; }
  /// Overwrite (snapshot-style mirroring of an externally kept counter).
  void set(uint64_t v) { value_ = v; }
  [[nodiscard]] uint64_t value() const { return value_; }
  void merge(const Counter& other) { value_ += other.value_; }

 private:
  uint64_t value_ = 0;
};

/// Instantaneous level with a peak watermark. merge() sums levels and takes
/// the max of peaks (the natural combination for per-node queue depths).
class Gauge {
 public:
  void set(int64_t v) {
    value_ = v;
    if (v > peak_) peak_ = v;
  }
  void add(int64_t delta) { set(value_ + delta); }
  [[nodiscard]] int64_t value() const { return value_; }
  [[nodiscard]] int64_t peak() const { return peak_; }
  void merge(const Gauge& other) {
    value_ += other.value_;
    if (other.peak_ > peak_) peak_ = other.peak_;
  }

 private:
  int64_t value_ = 0;
  int64_t peak_ = 0;
};

/// Fixed-bucket log2 histogram of non-negative integer samples (typically
/// nanoseconds). record() is two array stores and a handful of compares.
class Histogram {
 public:
  /// Bucket i spans [2^i, 2^(i+1)); bucket 0 also absorbs the value 0 and
  /// bucket kBuckets-1 absorbs everything at or above 2^(kBuckets-1)
  /// (overflow). Negative samples land in a dedicated underflow count and
  /// participate in rank arithmetic as "below every bucket".
  static constexpr int kBuckets = 63;

  void record(int64_t value) {
    ++count_;
    sum_ += value;
    if (count_ == 1 || value < min_) min_ = value;
    if (count_ == 1 || value > max_) max_ = value;
    if (value < 0) {
      ++underflow_;
      return;
    }
    ++buckets_[bucket_of(value)];
  }

  [[nodiscard]] uint64_t count() const { return count_; }
  [[nodiscard]] uint64_t underflow() const { return underflow_; }
  /// Samples in the top (overflow) bucket.
  [[nodiscard]] uint64_t overflow() const { return buckets_[kBuckets - 1]; }
  [[nodiscard]] int64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] int64_t max() const { return count_ == 0 ? 0 : max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  [[nodiscard]] uint64_t bucket(int i) const { return buckets_[i]; }

  /// Quantile estimate for q in [0, 1]: the rank-⌈q·n⌉ sample's bucket,
  /// linearly interpolated by rank position inside the bucket. q=0 and q=1
  /// return the exact tracked extrema. Error within a bucket is bounded by
  /// the bucket's width.
  [[nodiscard]] int64_t quantile(double q) const;

  /// Element-wise sum of bucket counts and extrema; quantiles of the merged
  /// histogram equal quantiles of the concatenated sample streams (within
  /// the same bucket-width bound).
  void merge(const Histogram& other);

  void clear() { *this = Histogram{}; }

 private:
  [[nodiscard]] static int bucket_of(int64_t value) {
    // value >= 0. Index of the highest set bit, clamped to the top bucket.
    int i = 0;
    for (uint64_t v = static_cast<uint64_t>(value); v > 1; v >>= 1) ++i;
    return i < kBuckets ? i : kBuckets - 1;
  }

  uint64_t buckets_[kBuckets] = {};
  uint64_t underflow_ = 0;
  uint64_t count_ = 0;
  /// Wide enough for 2^64 samples of any int64_t, so the sum never
  /// overflows and mean() stays exact up to the double's rounding.
  __int128 sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

/// Owning registry of metrics keyed by (component, name), e.g.
/// ("protocol", "token_rotation_ns"). Lookup interns the metric on first use
/// and returns a stable reference instrumentation sites keep for the run
/// (the map is never erased from). Iteration order is deterministic
/// (lexicographic), so exports are byte-stable across runs.
class MetricsRegistry {
 public:
  using Key = std::pair<std::string, std::string>;

  Counter& counter(std::string_view component, std::string_view name);
  Gauge& gauge(std::string_view component, std::string_view name);
  Histogram& histogram(std::string_view component, std::string_view name);

  /// Read-only lookup (no interning): nullptr when the metric was never
  /// created. The accessors snapshot consumers (exporters, tests) want.
  [[nodiscard]] const Counter* find_counter(std::string_view component,
                                            std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view component,
                                                std::string_view name) const;

  [[nodiscard]] const std::map<Key, std::unique_ptr<Counter>>& counters()
      const {
    return counters_;
  }
  [[nodiscard]] const std::map<Key, std::unique_ptr<Gauge>>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<Key, std::unique_ptr<Histogram>>& histograms()
      const {
    return histograms_;
  }

  /// Fold another registry in (cross-node aggregation). Metrics missing here
  /// are created; matching keys merge element-wise.
  void merge_from(const MetricsRegistry& other);

  [[nodiscard]] bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

 private:
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace accelring::obs
