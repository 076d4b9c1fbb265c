#include "obs/export.hpp"

namespace accelring::obs {

namespace {

std::string joined(const MetricsRegistry::Key& key) {
  return key.first + "." + key.second;
}

void append_histogram(JsonWriter& w, const Histogram& h) {
  w.begin_object();
  w.kv("count", h.count());
  w.kv("underflow", h.underflow());
  w.kv("overflow", h.overflow());
  w.kv("min", h.min());
  w.kv("max", h.max());
  w.kv("mean", h.mean());
  w.kv("p50", h.quantile(0.50));
  w.kv("p90", h.quantile(0.90));
  w.kv("p99", h.quantile(0.99));
  w.kv("p999", h.quantile(0.999));
  w.key("buckets").begin_array();
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    if (h.bucket(i) == 0) continue;
    w.begin_array().value(i).value(h.bucket(i)).end_array();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

void append_registry(JsonWriter& w, const MetricsRegistry& registry) {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [key, metric] : registry.counters()) {
    w.kv(joined(key), metric->value());
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [key, metric] : registry.gauges()) {
    w.key(joined(key))
        .begin_object()
        .kv("value", metric->value())
        .kv("peak", metric->peak())
        .end_object();
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [key, metric] : registry.histograms()) {
    w.key(joined(key));
    append_histogram(w, *metric);
  }
  w.end_object();
  w.end_object();
}

std::string registry_to_json(const MetricsRegistry& registry) {
  JsonWriter w;
  append_registry(w, registry);
  return std::move(w).take();
}

}  // namespace accelring::obs
