// Experiment driver: run one (protocol, profile, fabric, rings, load) point
// or a whole latency-vs-throughput series, producing the rows behind each
// figure in the paper and the multi-ring scaling table. Used by every binary
// under bench/ and by the integration tests' smoke checks.
#pragma once

#include <string>
#include <vector>

#include "harness/cluster.hpp"
#include "harness/latency.hpp"

namespace accelring::harness {

struct PointConfig {
  int nodes = 8;
  /// When non-empty, the cluster is built from this multi-datacenter
  /// topology and `nodes` is ignored (the topology's host count rules).
  simnet::Topology topology;
  simnet::FabricParams fabric = simnet::FabricParams::one_gig();
  protocol::ProtocolConfig proto;
  ImplProfile profile = ImplProfile::kLibrary;
  protocol::Service service = protocol::Service::kAgreed;
  size_t payload_size = 1350;
  double offered_mbps = 100.0;
  Nanos warmup = util::msec(150);
  Nanos measure = util::msec(600);
  uint64_t seed = 1;
  /// Rings in the set (K). Every node runs one engine per ring, and the
  /// measured stream is each node's merge of the K rings (at K = 1, the
  /// ring's own order).
  int rings = 1;
  /// Distinct ordering keys per sender; messages round-robin across them and
  /// the shard map spreads the keys over the rings.
  int streams_per_node = 32;
};

/// Run one point: build a set of `rings` rings, inject at the offered rate,
/// measure the merged stream. Counters are summed over the rings and CPU is
/// the busiest engine's.
[[nodiscard]] PointResult run_point(const PointConfig& config);

/// A labelled latency-vs-throughput curve (one line in a paper figure).
struct Curve {
  std::string label;
  std::vector<PointResult> points;
};

/// Run `base` at each offered load in `offered_mbps`.
[[nodiscard]] Curve run_curve(std::string label, PointConfig base,
                              const std::vector<double>& offered_mbps);

/// Step up the offered load from `start_mbps` by `step_mbps` until achieved
/// throughput stops following offered load (saturation), returning the
/// highest achieved throughput. Used for the headline "maximum throughput"
/// numbers in §IV.
[[nodiscard]] PointResult find_max_throughput(PointConfig base,
                                              double start_mbps,
                                              double step_mbps,
                                              double ceiling_mbps);

/// Print a curve as an aligned table (bench binaries' output format).
void print_curve(const Curve& curve);

/// Convenience: protocol config for a variant with the benchmark windows,
/// packing off (one message per packet, as in the paper's figures).
[[nodiscard]] protocol::ProtocolConfig bench_protocol(protocol::Variant v);

}  // namespace accelring::harness
