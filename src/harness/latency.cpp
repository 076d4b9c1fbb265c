#include "harness/latency.hpp"

namespace accelring::harness {

bool LatencyRecorder::record(int node, const protocol::Delivery& delivery,
                             Nanos at) {
  ++total_messages_;
  if (at < window_start_ || at >= window_end_) return false;
  PayloadStamp stamp;
  if (!parse_payload(delivery.payload, stamp)) return false;
  latency_.add(at - stamp.inject_time);
  per_node_meter_[node].add(delivery.payload.size());
  return true;
}

PointResult LatencyRecorder::result(double offered_mbps) const {
  PointResult r;
  r.offered_mbps = offered_mbps;
  double sum = 0;
  for (size_t i = 0; i < per_node_meter_.size(); ++i) {
    sum += node_mbps(static_cast<int>(i));
  }
  r.achieved_mbps = sum / static_cast<double>(per_node_meter_.size());
  r.mean_latency = latency_.mean();
  r.p50_latency = latency_.percentile(0.5);
  r.p90_latency = latency_.percentile(0.90);
  r.p99_latency = latency_.percentile(0.99);
  r.p999_latency = latency_.percentile(0.999);
  r.max_latency = latency_.max();
  r.messages = node_messages(0);
  return r;
}

PointResult LatencyRecorder::result(double offered_mbps,
                                    obs::MetricsRegistry metrics) const {
  PointResult r = result(offered_mbps);
  auto merged = std::make_shared<obs::MetricsRegistry>(std::move(metrics));
  obs::Histogram& dist = merged->histogram("harness", "delivery_latency_ns");
  for (const Nanos sample : latency_.samples()) dist.record(sample);
  r.metrics = std::move(merged);
  return r;
}

}  // namespace accelring::harness
