// Delivery-side measurement: per-receiver latency and throughput accounting
// over an explicit measurement window, mirroring the paper's methodology
// (§IV-A): latency is the mean time from client injection to client receipt
// across all receivers; throughput counts clean application payload only.
// Both point runners (harness::run_point for the rings at every K,
// baselines::run_baseline_point) fill their PointResult through one
// LatencyRecorder.
#pragma once

#include <memory>
#include <vector>

#include "harness/workload.hpp"
#include "obs/metrics.hpp"
#include "protocol/types.hpp"
#include "util/stats.hpp"

namespace accelring::harness {

/// run_point fills every field; run_baseline_point fills the recorder's
/// (offered_mbps through messages).
struct PointResult {
  double offered_mbps = 0;
  double achieved_mbps = 0;  ///< clean payload per receiver (mean)
  Nanos mean_latency = 0;
  Nanos p50_latency = 0;
  Nanos p90_latency = 0;
  Nanos p99_latency = 0;
  Nanos p999_latency = 0;
  Nanos max_latency = 0;
  uint64_t messages = 0;        ///< messages measured (one receiver)
  uint64_t buffer_drops = 0;    ///< switch port-buffer tail drops
  uint64_t socket_drops = 0;    ///< host socket-buffer drops
  uint64_t retransmits = 0;     ///< data retransmissions (all nodes)
  uint64_t rtr_requested = 0;   ///< rtr requests added to tokens
  uint64_t token_retransmits = 0;
  uint64_t submit_rejected = 0; ///< backpressure at the senders
  /// Highest per-node virtual CPU utilization over the run (busy time /
  /// elapsed). The paper stresses that the single-threaded daemon must not
  /// consume more than one core; this is that number.
  double max_cpu_utilization = 0;
  /// Each ring's share of node 0's merged stream, and the skips node 0's
  /// merger consumed.
  std::vector<double> per_ring_mbps;
  uint64_t skip_msgs = 0;
  /// Cluster-wide metric registry for the point (engine/membership metrics
  /// merged across nodes and rings, every node's merger metrics, plus the
  /// harness's cross-node delivery-latency histogram under ("harness",
  /// "delivery_latency_ns")). Shared so PointResult stays cheaply copyable
  /// through curve/max-search plumbing.
  std::shared_ptr<const obs::MetricsRegistry> metrics;
};

class LatencyRecorder {
 public:
  /// Records deliveries whose receipt time falls in [window_start,
  /// window_end) at receivers 0..num_nodes-1.
  LatencyRecorder(int num_nodes, Nanos window_start, Nanos window_end)
      : window_start_(window_start),
        window_end_(window_end),
        per_node_meter_(num_nodes) {}

  /// Feed one delivery; true when it was measured (inside the window and
  /// carrying a PayloadStamp).
  bool record(int node, const protocol::Delivery& delivery, Nanos at);

  [[nodiscard]] const util::LatencyStats& latency() const { return latency_; }
  /// Clean payload throughput observed by `node` over the window.
  [[nodiscard]] double node_mbps(int node) const {
    return per_node_meter_[node].mbps(window_end_ - window_start_);
  }
  [[nodiscard]] uint64_t node_messages(int node) const {
    return per_node_meter_[node].messages();
  }
  [[nodiscard]] uint64_t total_messages() const { return total_messages_; }

  /// The offered load, the achieved throughput (mean over the recorded
  /// nodes: they all see the same aggregate stream, and the mean smooths
  /// edge-of-window effects), the latency quantiles and node 0's message
  /// count.
  [[nodiscard]] PointResult result(double offered_mbps) const;
  /// As above, plus `metrics` with the cross-node delivery latency (inject
  /// stamp at the sender's client -> client receipt anywhere, the number the
  /// paper's figures plot) added as ("harness", "delivery_latency_ns"). The
  /// engine-level origin_* histograms cover only own-node delivery.
  [[nodiscard]] PointResult result(double offered_mbps,
                                   obs::MetricsRegistry metrics) const;

 private:
  Nanos window_start_;
  Nanos window_end_;
  util::LatencyStats latency_;
  std::vector<util::Meter> per_node_meter_;
  uint64_t total_messages_ = 0;
};

}  // namespace accelring::harness
