// Serialization of a MetricsRegistry to machine-readable artifacts.
//
// JSON layout (consumed by tools/validate_bench_json.py and
// tools/plot_figures.py):
//
//   {"counters": {"component.name": 42, ...},
//    "gauges":   {"component.name": {"value": 3, "peak": 17}, ...},
//    "histograms": {"component.name": {
//        "count": 1000, "underflow": 0, "overflow": 0,
//        "min": 120, "max": 91000, "mean": 4512.8,
//        "p50": 4100, "p90": 8200, "p99": 30100, "p999": 88000,
//        "buckets": [[12, 3], [13, 997]]   // [bucket index, count], nonzero
//    }, ...}}
//
// Iteration order comes from the registry's std::map, so output is
// byte-stable for a given set of recorded values.
#pragma once

#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace accelring::obs {

/// Append the registry as a JSON object value (caller controls surrounding
/// structure — used both for standalone exports and for embedding the metric
/// snapshot inside a flight-recorder artifact).
void append_registry(JsonWriter& w, const MetricsRegistry& registry);

/// The registry alone as a complete JSON document.
[[nodiscard]] std::string registry_to_json(const MetricsRegistry& registry);

}  // namespace accelring::obs
