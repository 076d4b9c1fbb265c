// Statistics collection for the benchmark harness.
//
// LatencyStats records individual sample values (nanoseconds) and reports
// mean / percentiles; Counter and Meter track event counts and byte volumes
// over a measurement window. These are simple exact implementations — the
// benchmark runs are small enough (hundreds of thousands of samples) that we
// do not need sketches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/time.hpp"

namespace accelring::util {

/// Collects latency samples and computes summary statistics on demand.
class LatencyStats {
 public:
  void add(Nanos sample);
  void clear();

  [[nodiscard]] size_t count() const { return samples_.size(); }
  [[nodiscard]] Nanos mean() const;
  [[nodiscard]] Nanos min() const;
  [[nodiscard]] Nanos max() const;
  /// q in [0,1]; e.g. 0.5 for median, 0.99 for p99. Sorts lazily.
  [[nodiscard]] Nanos percentile(double q) const;
  [[nodiscard]] Nanos stddev() const;

  /// Raw samples (ordering unspecified: percentile() sorts in place).
  [[nodiscard]] const std::vector<Nanos>& samples() const { return samples_; }

 private:
  mutable std::vector<Nanos> samples_;
  mutable bool sorted_ = false;
};

/// Byte/message throughput accounting over an explicit window.
class Meter {
 public:
  void add(uint64_t bytes) {
    ++messages_;
    bytes_ += bytes;
  }
  void clear() {
    messages_ = 0;
    bytes_ = 0;
  }

  [[nodiscard]] uint64_t messages() const { return messages_; }
  [[nodiscard]] uint64_t bytes() const { return bytes_; }
  /// Payload megabits per second over a window of `window` nanoseconds.
  [[nodiscard]] double mbps(Nanos window) const;

 private:
  uint64_t messages_ = 0;
  uint64_t bytes_ = 0;
};

/// Converts a stream of nanosecond deltas into whole-microsecond installments
/// without losing sub-microsecond remainders. Each consume() returns the
/// whole microseconds available after folding in `delta`, carrying the
/// remainder forward, so the cumulative total returned always equals
/// floor(sum_of_deltas / 1000). Rounding each delta independently (as the
/// token hold stamping once did, with ceil) drifts by up to 1us *per call* —
/// at 50k rotations/s that fabricated tens of milliseconds of phantom CPU
/// per second, enough to push a healthy node over the gray-failure
/// threshold. tests/stats_resolution_test.cpp pins the exact totals.
class MicrosAccumulator {
 public:
  [[nodiscard]] uint32_t consume(Nanos delta) {
    carry_ += delta;
    if (carry_ < 1000) return 0;
    const Nanos whole = carry_ / 1000;
    carry_ -= whole * 1000;
    return static_cast<uint32_t>(whole);
  }

  /// Sub-microsecond remainder not yet reported, in [0, 1000).
  [[nodiscard]] Nanos remainder() const { return carry_; }
  void clear() { carry_ = 0; }

 private:
  Nanos carry_ = 0;
};

}  // namespace accelring::util
