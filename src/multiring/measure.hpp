// Multi-ring experiment driver: inject sharded load into a RingSet and
// measure the *merged* stream — the number an application sitting on top of
// K rings actually sees — through the same harness::RateInjector and
// harness::LatencyRecorder as harness::run_point, so single-ring and
// multi-ring numbers are directly comparable.
#pragma once

#include "harness/latency.hpp"
#include "multiring/ring_set.hpp"

namespace accelring::multiring {

struct MultiPointConfig {
  MultiRingConfig ring;
  protocol::Service service = protocol::Service::kAgreed;
  size_t payload_size = 1350;
  /// Aggregate clean payload Mbps across all senders and all rings.
  double offered_mbps = 1000.0;
  /// Distinct ordering keys per sender; messages round-robin across them and
  /// the shard map spreads the keys over rings (models many groups).
  int streams_per_node = 32;
  Nanos warmup = util::msec(100);
  Nanos measure = util::msec(300);
};

/// Run one multi-ring point: K rings, sharded fixed-rate injection, merged
/// delivery measurement. Drops, retransmits, backpressure and CPU are summed
/// (or maxed) over all rings; the registry holds every ring's engine metrics
/// plus every node's merger metrics.
[[nodiscard]] harness::PointResult run_multiring_point(
    const MultiPointConfig& config);

}  // namespace accelring::multiring
