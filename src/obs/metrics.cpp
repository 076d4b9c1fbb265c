#include "obs/metrics.hpp"

namespace accelring::obs {

int64_t Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  if (q <= 0.0) return min();
  if (q >= 1.0) return max();
  // Rank of the requested sample, 1-based: ceil(q * n), clamped to [1, n].
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_));
  if (static_cast<double>(rank) < q * static_cast<double>(count_)) ++rank;
  if (rank < 1) rank = 1;
  if (rank > count_) rank = count_;

  if (rank <= underflow_) return min();  // inside the negative samples
  uint64_t seen = underflow_;
  for (int i = 0; i < kBuckets; ++i) {
    const uint64_t in_bucket = buckets_[i];
    if (in_bucket == 0) continue;
    if (rank > seen + in_bucket) {
      seen += in_bucket;
      continue;
    }
    // Interpolate by rank position within [lo, hi); clamp to the true
    // extrema so single-bucket distributions report exact values.
    const int64_t lo = i == 0 ? 0 : (int64_t{1} << i);
    const int64_t hi = (int64_t{1} << (i + 1));
    const double frac = in_bucket <= 1
                            ? 0.0
                            : static_cast<double>(rank - seen - 1) /
                                  static_cast<double>(in_bucket - 1);
    int64_t est =
        lo + static_cast<int64_t>(frac * static_cast<double>(hi - 1 - lo));
    if (est > max_) est = max_;
    if (est < min_) est = min_;
    return est;
  }
  return max();
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (count_ == 0 || other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
  underflow_ += other.underflow_;
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
}

Counter& MetricsRegistry::counter(std::string_view component,
                                  std::string_view name) {
  auto& slot = counters_[Key{std::string(component), std::string(name)}];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(std::string_view component,
                              std::string_view name) {
  auto& slot = gauges_[Key{std::string(component), std::string(name)}];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(std::string_view component,
                                      std::string_view name) {
  auto& slot = histograms_[Key{std::string(component), std::string(name)}];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

namespace {

template <typename Map>
auto* find_in(const Map& map, std::string_view component,
              std::string_view name) {
  const auto it =
      map.find(MetricsRegistry::Key{std::string(component), std::string(name)});
  return it == map.end() ? nullptr : it->second.get();
}

}  // namespace

const Counter* MetricsRegistry::find_counter(std::string_view component,
                                             std::string_view name) const {
  return find_in(counters_, component, name);
}

const Histogram* MetricsRegistry::find_histogram(std::string_view component,
                                                 std::string_view name) const {
  return find_in(histograms_, component, name);
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [key, metric] : other.counters_) {
    counter(key.first, key.second).merge(*metric);
  }
  for (const auto& [key, metric] : other.gauges_) {
    gauge(key.first, key.second).merge(*metric);
  }
  for (const auto& [key, metric] : other.histograms_) {
    histogram(key.first, key.second).merge(*metric);
  }
}

}  // namespace accelring::obs
