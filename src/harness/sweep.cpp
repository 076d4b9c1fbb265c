#include "harness/sweep.hpp"

#include <algorithm>
#include <cstdio>

#include "multiring/ring_set.hpp"

namespace accelring::harness {

PointResult run_point(const PointConfig& config) {
  multiring::MultiRingConfig set;
  set.rings = config.rings;
  set.nodes_per_ring = config.topology.hosts.empty()
                           ? config.nodes
                           : config.topology.num_hosts();
  set.topology = config.topology;
  set.fabric = config.fabric;
  set.proto = config.proto;
  set.profile = config.profile;
  set.seed = config.seed;
  multiring::RingSet rings(set);
  const int nodes = rings.nodes_per_ring();
  // Always-on: recording is free of perturbation (obs_determinism_test pins
  // this), and every bench point then ships its latency histograms.
  rings.enable_metrics();
  const Nanos window_end = config.warmup + config.measure;
  LatencyRecorder recorder(nodes, config.warmup, window_end);
  std::vector<uint64_t> ring_bytes(static_cast<size_t>(config.rings), 0);
  rings.set_on_merged([&](int node, int ring, const protocol::Delivery& d,
                          Nanos at) {
    if (recorder.record(node, d, at) && node == 0) {
      ring_bytes[static_cast<size_t>(ring)] += d.payload.size();
    }
  });

  RateInjector::Options inject;
  inject.payload_size = config.payload_size;
  inject.aggregate_mbps = config.offered_mbps;
  inject.start = util::usec(100);  // let the ring form first
  inject.stop = window_end;
  // Each sender cycles through its own `streams_per_node` ordering keys, so
  // the shard map spreads the load across rings.
  const auto streams = static_cast<uint64_t>(config.streams_per_node);
  RateInjector injector(
      rings.eq(), nodes, inject,
      [&rings, service = config.service, streams](
          int node, uint32_t index, std::vector<std::byte> payload) {
        rings.submit_keyed(
            node, static_cast<uint64_t>(node) * streams + index % streams,
            service, std::move(payload));
      });

  rings.start_static();
  injector.arm();
  // Drain time lets in-flight messages deliver (they only count if they
  // arrive inside the window).
  rings.run_until(window_end + util::msec(50));

  PointResult r = recorder.result(config.offered_mbps, rings.merged_metrics());
  r.skip_msgs = rings.merger(0).stats().skip_msgs;
  const double window_sec = util::to_sec(config.measure);
  for (const uint64_t bytes : ring_bytes) {
    r.per_ring_mbps.push_back(static_cast<double>(bytes) * 8.0 / 1e6 /
                              window_sec);
  }
  for (const ClusterStats& stats : rings.ring_stats()) {
    r.buffer_drops += stats.net.drops_buffer;
    r.socket_drops += stats.socket_drops();
    r.retransmits += stats.retransmits();
    r.rtr_requested += stats.rtr_requested();
    r.token_retransmits += stats.token_retransmits();
    r.submit_rejected += stats.submit_rejected();
    r.max_cpu_utilization =
        std::max(r.max_cpu_utilization, stats.max_cpu_utilization());
  }
  return r;
}

Curve run_curve(std::string label, PointConfig base,
                const std::vector<double>& offered_mbps) {
  Curve curve;
  curve.label = std::move(label);
  for (double mbps : offered_mbps) {
    base.offered_mbps = mbps;
    curve.points.push_back(run_point(base));
  }
  return curve;
}

PointResult find_max_throughput(PointConfig base, double start_mbps,
                                double step_mbps, double ceiling_mbps) {
  PointResult best;
  for (double offered = start_mbps; offered <= ceiling_mbps;
       offered += step_mbps) {
    base.offered_mbps = offered;
    const PointResult r = run_point(base);
    if (r.achieved_mbps > best.achieved_mbps) best = r;
    // Saturated: achieved falls well short of offered and is no longer
    // improving, so pushing harder only grows queues.
    if (r.achieved_mbps < 0.85 * offered) break;
  }
  return best;
}

void print_curve(const Curve& curve) {
  std::printf("# %s\n", curve.label.c_str());
  std::printf("%12s %12s %12s %12s %12s %10s %10s %8s\n", "offered_mbps",
              "achieved", "mean_lat_us", "p50_us", "p99_us", "retrans",
              "drops", "cpu%");
  for (const PointResult& p : curve.points) {
    std::printf("%12.0f %12.1f %12.1f %12.1f %12.1f %10llu %10llu %8.1f\n",
                p.offered_mbps, p.achieved_mbps, util::to_usec(p.mean_latency),
                util::to_usec(p.p50_latency), util::to_usec(p.p99_latency),
                static_cast<unsigned long long>(p.retransmits),
                static_cast<unsigned long long>(p.buffer_drops +
                                                p.socket_drops),
                100.0 * p.max_cpu_utilization);
  }
  std::printf("\n");
}

protocol::ProtocolConfig bench_protocol(protocol::Variant v) {
  protocol::ProtocolConfig cfg;
  cfg.variant = v;
  cfg.priority = protocol::PriorityMethod::kAggressive;
  cfg.personal_window = 20;
  cfg.global_window = 160;
  cfg.accelerated_window = 15;
  // The paper's measurements send one message per packet; ablation_packing
  // turns packing on per run.
  cfg.enable_packing = false;
  return cfg;
}

}  // namespace accelring::harness
