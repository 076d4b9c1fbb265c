#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace accelring::util {

void LatencyStats::add(Nanos sample) {
  samples_.push_back(sample);
  sorted_ = false;
}

void LatencyStats::clear() {
  samples_.clear();
  sorted_ = false;
}

Nanos LatencyStats::mean() const {
  if (samples_.empty()) return 0;
  long double total = 0;
  for (Nanos s : samples_) total += static_cast<long double>(s);
  return static_cast<Nanos>(total / static_cast<long double>(samples_.size()));
}

Nanos LatencyStats::min() const {
  if (samples_.empty()) return 0;
  return *std::min_element(samples_.begin(), samples_.end());
}

Nanos LatencyStats::max() const {
  if (samples_.empty()) return 0;
  return *std::max_element(samples_.begin(), samples_.end());
}

Nanos LatencyStats::percentile(double q) const {
  if (samples_.empty()) return 0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double idx = q * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return static_cast<Nanos>(static_cast<double>(samples_[lo]) * (1.0 - frac) +
                            static_cast<double>(samples_[hi]) * frac);
}

Nanos LatencyStats::stddev() const {
  if (samples_.size() < 2) return 0;
  const long double m = static_cast<long double>(mean());
  long double acc = 0;
  for (Nanos s : samples_) {
    const long double d = static_cast<long double>(s) - m;
    acc += d * d;
  }
  return static_cast<Nanos>(
      std::sqrt(static_cast<double>(acc / static_cast<long double>(samples_.size() - 1))));
}

double Meter::mbps(Nanos window) const {
  if (window <= 0) return 0;
  return static_cast<double>(bytes_) * 8.0 / (static_cast<double>(window) / 1e9) /
         1e6;
}

}  // namespace accelring::util
