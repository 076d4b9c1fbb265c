// Geo-distribution sweep: one ring stretched over progressively wider
// multi-datacenter topologies — LAN baseline, metro (2 DCs / 2 ms),
// regional (3 DCs / 10 ms), continental (3 DCs / 50 ms, asymmetric return
// bandwidth), global (4 DCs / 100 ms) — at loads scaled to each class's
// rotation-bound capacity.
//
// The paper's protocol is a data-center protocol: a token rotation crosses
// every WAN boundary on the ring, so capacity falls roughly as
// window_bytes / rotation_time while delivery latency grows with the
// rotation. This figure quantifies that cliff, and the windows/timeouts are
// rescaled per class (bigger windows amortize the long rotation; adaptive
// timeouts track it) so each class runs at its own best configuration
// rather than a LAN-tuned strawman.
//
// `--smoke` runs the three narrow classes at two loads with short windows
// for CI; tools/ci.sh validates the emitted
// BENCH_wan_topologies.json with tools/validate_bench_json.py.
#include <cstdio>
#include <cstring>

#include "bench_common.hpp"

namespace accelring::bench {
namespace {

struct TopologyClass {
  const char* name;
  int num_dcs;        // 1 = classic single switch
  util::Nanos wan_prop;  // one-way WAN propagation
  double asym = 1.0;  // bps_ba multiplier (continental: half-rate return)
};

constexpr int kNodes = 8;
constexpr size_t kPayload = 1350;

simnet::Topology class_topology(const TopologyClass& tc) {
  simnet::Topology topo = simnet::make_wan_topology(
      kNodes, tc.num_dcs, tc.wan_prop, /*wan_bps=*/1e9, /*full_mesh=*/true,
      /*rack_size=*/2);
  for (simnet::WanLinkParams& link : topo.wan_links) link.bps_ba *= tc.asym;
  return topo;
}

/// One token rotation crosses each DC boundary once (hosts sit on the ring
/// in DC order), so the rotation is dominated by num_dcs WAN propagations.
util::Nanos rotation_estimate(const TopologyClass& tc) {
  return (tc.num_dcs > 1 ? tc.num_dcs * tc.wan_prop : 0) + util::msec(1);
}

/// Windows and timers rescaled for the class: wide windows keep the pipe
/// full across a long rotation, and every membership timer sits far enough
/// above the rotation that geography alone never looks like failure. The
/// failure detector then tightens the live token-loss timeout toward the
/// measured rotation.
protocol::ProtocolConfig class_protocol(const TopologyClass& tc) {
  protocol::ProtocolConfig cfg =
      harness::bench_protocol(protocol::Variant::kAccelerated);
  if (tc.num_dcs > 1) {
    cfg.personal_window = 120;
    cfg.global_window = 1000;
    cfg.accelerated_window = 100;
    cfg.max_seq_gap = 8192;
    const util::Nanos rot = rotation_estimate(tc);
    cfg.timeouts.token_retransmit =
        std::max(cfg.timeouts.token_retransmit, 3 * rot);
    cfg.timeouts.token_loss = std::max(cfg.timeouts.token_loss, 8 * rot);
    cfg.timeouts.join = std::max(cfg.timeouts.join, 2 * rot);
    cfg.timeouts.consensus = std::max(cfg.timeouts.consensus, 16 * rot);
  }
  return cfg;
}

/// Rotation-bound capacity estimate: the ring moves at most one personal
/// window per member per rotation.
double capacity_mbps_estimate(const TopologyClass& tc,
                              const protocol::ProtocolConfig& cfg) {
  const double per_rotation_bits = static_cast<double>(cfg.personal_window) *
                                   kNodes * static_cast<double>(kPayload) * 8.0;
  const double rotation_sec =
      static_cast<double>(rotation_estimate(tc)) * 1e-9;
  return std::min(900.0, per_rotation_bits / rotation_sec / 1e6);
}

harness::Curve run_class(const TopologyClass& tc, bool smoke) {
  PointConfig pc = base_point(/*ten_gig=*/false);
  pc.nodes = kNodes;
  if (tc.num_dcs > 1) pc.topology = class_topology(tc);
  pc.proto = class_protocol(tc);
  pc.service = Service::kAgreed;
  pc.payload_size = kPayload;
  // Windows sized in rotations, not wall time: the global class needs
  // seconds of simulated time to see the same number of rotations the LAN
  // class sees in 100 ms.
  const util::Nanos rot = rotation_estimate(tc);
  pc.warmup = std::max<util::Nanos>(pc.warmup, (smoke ? 5 : 12) * rot);
  pc.measure = std::max<util::Nanos>(smoke ? util::msec(120) : pc.measure,
                                     (smoke ? 10 : 30) * rot);

  const double cap = capacity_mbps_estimate(tc, pc.proto);
  std::vector<double> loads;
  for (double f : smoke ? std::vector<double>{0.3, 0.7}
                        : std::vector<double>{0.2, 0.4, 0.6, 0.8, 0.95}) {
    loads.push_back(cap * f);
  }

  char label[128];
  std::snprintf(label, sizeof(label), "%s / %dDC / %.0fms / cap~%.0fMbps",
                tc.name, tc.num_dcs,
                static_cast<double>(tc.wan_prop) / 1e6, cap);
  harness::Curve curve = harness::run_curve(label, pc, loads);
  harness::print_curve(curve);
  return curve;
}

int run(bool smoke) {
  std::printf("==== Total order across datacenters: topology classes ====\n\n");
  const std::vector<TopologyClass> classes = {
      {"lan", 1, 0},
      {"metro", 2, util::msec(2)},
      {"regional", 3, util::msec(10)},
      {"continental", 3, util::msec(50), 0.5},
      {"global", 4, util::msec(100)},
  };
  std::vector<harness::Curve> curves;
  for (const TopologyClass& tc : classes) {
    if (smoke && tc.wan_prop > util::msec(10)) continue;  // CI budget
    curves.push_back(run_class(tc, smoke));
  }
  emit_bench_artifacts("wan_topologies", curves);
  return 0;
}

}  // namespace
}  // namespace accelring::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return accelring::bench::run(smoke);
}
