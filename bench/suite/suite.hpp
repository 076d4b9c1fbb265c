// Shared plumbing of the wall-clock benchmark suite: run options, the result
// record every workload fills in, clocks and order statistics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace accelring::suite {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;    ///< measured time budget of one run
  bool trace = false;  ///< per-layer run: spans, layer drives, counters
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run reports. Metrics keep insertion order, so the printed
/// table and the JSON list them the same way on every run.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< correctness violations

  void set(const std::string& name, double value, const std::string& unit);
  /// The metric's value, or nullptr when it was not set.
  [[nodiscard]] const double* find(const std::string& name) const;
  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

[[nodiscard]] int64_t mono_ns();        ///< steady clock
[[nodiscard]] int64_t thread_cpu_ns();  ///< CLOCK_THREAD_CPUTIME_ID
[[nodiscard]] double peak_rss_mb();     ///< VmHWM of /proc/self/status

/// Linearly interpolated quantile of an unsorted sample (q in [0, 1]); 0 for
/// an empty sample.
template <typename T>
[[nodiscard]] double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) +
         static_cast<double>(v[hi]) * frac;
}

template <typename T>
[[nodiscard]] double median(std::vector<T> v) {
  return quantile(std::move(v), 0.5);
}

/// ring_agreed_1350 and ring_safe_200: three engines over loopback UDP.
void run_ring(const Options& opt, Result& result);
/// sim_kv_k4: the sharded KV service on the simulator.
void run_kv(const Options& opt, Result& result);
/// sim_campaign: the oracle-checked fault campaign.
void run_campaign(const Options& opt, Result& result);
/// Isolated layer drives: fixed-count loops over single layers, each the
/// median of 5 repetitions. Part of every traced run.
void run_layer_drives(Result& result);

}  // namespace accelring::suite
