#include "multiring/measure.hpp"

#include <algorithm>

namespace accelring::multiring {

harness::PointResult run_multiring_point(const MultiPointConfig& config) {
  RingSet rings(config.ring);
  // Always-on, like harness::run_point: recording never perturbs the run
  // (obs_determinism_test pins this for the multi-ring assembly too).
  rings.enable_metrics();
  const Nanos window_end = config.warmup + config.measure;
  harness::LatencyRecorder recorder(config.ring.nodes_per_ring, config.warmup,
                                    window_end);
  std::vector<uint64_t> ring_bytes(static_cast<size_t>(config.ring.rings), 0);
  rings.set_on_merged([&](int node, int ring, const protocol::Delivery& d,
                          Nanos at) {
    if (recorder.record(node, d, at) && node == 0) {
      ring_bytes[static_cast<size_t>(ring)] += d.payload.size();
    }
  });

  harness::RateInjector::Options inject;
  inject.payload_size = config.payload_size;
  inject.aggregate_mbps = config.offered_mbps;
  inject.start = util::usec(100);
  inject.stop = window_end;
  // Each sender cycles through its own `streams_per_node` ordering keys, so
  // the shard map spreads the load across rings.
  const auto streams = static_cast<uint64_t>(config.streams_per_node);
  harness::RateInjector injector(
      rings.eq(), config.ring.nodes_per_ring, inject,
      [&rings, &config, streams](int node, uint32_t index,
                                 std::vector<std::byte> payload) {
        rings.submit_keyed(node,
                           static_cast<uint64_t>(node) * streams +
                               index % streams,
                           config.service, std::move(payload));
      });
  rings.start_static();
  injector.arm();
  rings.run_until(window_end + util::msec(50));

  harness::PointResult r =
      recorder.result(config.offered_mbps, rings.merged_metrics());
  r.skip_msgs = rings.merger(0).stats().skip_msgs;
  const double window_sec = util::to_sec(config.measure);
  for (const uint64_t bytes : ring_bytes) {
    r.per_ring_mbps.push_back(static_cast<double>(bytes) * 8.0 / 1e6 /
                              window_sec);
  }
  for (const harness::ClusterStats& cs : rings.ring_stats()) {
    r.retransmits += cs.retransmits();
    r.buffer_drops += cs.net.drops_buffer;
    r.submit_rejected += cs.submit_rejected();
    r.max_cpu_utilization =
        std::max(r.max_cpu_utilization, cs.max_cpu_utilization());
  }
  return r;
}

}  // namespace accelring::multiring
