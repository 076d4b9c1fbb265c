#include "harness/sweep.hpp"

#include <algorithm>
#include <cstdio>

namespace accelring::harness {

PointResult run_point(const PointConfig& config) {
  const simnet::Topology topo = config.topology.hosts.empty()
                                    ? simnet::Topology::single_dc(config.nodes)
                                    : config.topology;
  SimCluster cluster(topo, config.fabric, config.proto, config.profile,
                     config.seed);
  const int nodes = cluster.size();
  // Always-on: recording is free of perturbation (obs_determinism_test pins
  // this), and every bench point then ships its latency histograms.
  cluster.enable_metrics();
  const Nanos window_end = config.warmup + config.measure;
  LatencyRecorder recorder(nodes, config.warmup, window_end);
  cluster.set_on_deliver(
      [&recorder](int node, const protocol::Delivery& d, Nanos at) {
        recorder.record(node, d, at);
      });

  RateInjector::Options inject;
  inject.payload_size = config.payload_size;
  inject.aggregate_mbps = config.offered_mbps;
  inject.start = util::usec(100);  // let the ring form first
  inject.stop = window_end;
  RateInjector injector(
      cluster.eq(), nodes, inject,
      [&cluster, service = config.service](int node, uint32_t,
                                           std::vector<std::byte> payload) {
        cluster.submit(node, service, std::move(payload));
      });

  cluster.start_static();
  injector.arm();
  // Drain time lets in-flight messages deliver (they only count if they
  // arrive inside the window).
  cluster.run_until(window_end + util::msec(50));

  PointResult r =
      recorder.result(config.offered_mbps, cluster.merged_metrics());
  const ClusterStats stats = cluster.stats();
  r.buffer_drops = stats.net.drops_buffer;
  r.socket_drops = stats.socket_drops();
  r.retransmits = stats.retransmits();
  r.rtr_requested = stats.rtr_requested();
  r.token_retransmits = stats.token_retransmits();
  r.submit_rejected = stats.submit_rejected();
  r.max_cpu_utilization = stats.max_cpu_utilization();
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
