// Tests for the measurement harness itself: rate injection, latency
// windows, profile cost accounting — the instruments behind every figure.
#include <gtest/gtest.h>

#include "harness/sweep.hpp"

namespace accelring::harness {
namespace {

TEST(Workload, PayloadStampRoundTrip) {
  PayloadStamp in{123456789, 3, 42};
  const auto payload = make_payload(256, in);
  EXPECT_EQ(payload.size(), 256u);
  PayloadStamp out;
  ASSERT_TRUE(parse_payload(payload, out));
  EXPECT_EQ(out.inject_time, 123456789);
  EXPECT_EQ(out.sender, 3u);
  EXPECT_EQ(out.index, 42u);
}

TEST(Workload, TooShortPayloadRejected) {
  PayloadStamp out;
  std::vector<std::byte> tiny(8);
  EXPECT_FALSE(parse_payload(tiny, out));
}

TEST(Workload, InjectorHitsConfiguredRate) {
  SimCluster cluster(4, simnet::FabricParams::one_gig(), {},
                     ImplProfile::kLibrary);
  cluster.start_static();
  RateInjector::Options opt;
  opt.payload_size = 1000;
  opt.aggregate_mbps = 80;  // 10k msgs/s aggregate
  opt.start = 0;
  opt.stop = util::msec(100);
  RateInjector injector(
      cluster.eq(), cluster.size(), opt,
      [&cluster](int node, uint32_t, std::vector<std::byte> payload) {
        cluster.submit(node, protocol::Service::kAgreed, std::move(payload));
      });
  injector.arm();
  cluster.run_until(util::msec(200));
  // 10000 msgs/s * 0.1s = 1000 messages (+- rounding per node).
  EXPECT_NEAR(static_cast<double>(injector.injected()), 1000.0, 16.0);
}

TEST(LatencyWindow, OnlyCountsInsideWindow) {
  LatencyRecorder recorder(2, util::msec(10), util::msec(20));
  protocol::Delivery d;
  d.payload = make_payload(64, PayloadStamp{0, 0, 0});
  recorder.record(0, d, util::msec(5));   // before window
  recorder.record(0, d, util::msec(15));  // inside
  recorder.record(0, d, util::msec(25));  // after
  EXPECT_EQ(recorder.latency().count(), 1u);
  EXPECT_EQ(recorder.node_messages(0), 1u);
  EXPECT_EQ(recorder.total_messages(), 3u);
}

TEST(LatencyWindow, ThroughputFromWindowedBytes) {
  LatencyRecorder recorder(1, 0, util::msec(100));
  protocol::Delivery d;
  d.payload = make_payload(1250, PayloadStamp{0, 0, 0});
  for (int i = 0; i < 100; ++i) recorder.record(0, d, util::msec(i));
  // 100 * 1250B * 8 bits over 0.1 s = 10 Mbps.
  EXPECT_NEAR(recorder.node_mbps(0), 10.0, 0.01);
}

TEST(RunPoint, LowLoadAchievesOfferedWithSaneLatency) {
  PointConfig pc;
  pc.nodes = 4;
  pc.offered_mbps = 50;
  pc.warmup = util::msec(50);
  pc.measure = util::msec(150);
  const PointResult r = run_point(pc);
  EXPECT_NEAR(r.achieved_mbps, 50.0, 3.0);
  EXPECT_GT(r.mean_latency, 0);
  EXPECT_LT(r.mean_latency, util::msec(5));
  EXPECT_EQ(r.buffer_drops, 0u);
}

TEST(RunPoint, DaemonProfileAddsIpcLatency) {
  PointConfig pc;
  pc.nodes = 4;
  pc.offered_mbps = 50;
  pc.warmup = util::msec(50);
  pc.measure = util::msec(150);
  pc.profile = ImplProfile::kLibrary;
  const PointResult lib = run_point(pc);
  pc.profile = ImplProfile::kDaemon;
  const PointResult daemon = run_point(pc);
  // The daemon path pays one IPC hop on injection and one on delivery.
  const auto ipc = NodeSetup::for_profile(ImplProfile::kDaemon).ipc_latency;
  EXPECT_GT(daemon.mean_latency, lib.mean_latency + ipc);
}

TEST(RunPoint, AcceleratedBeatsOriginalNearSaturation) {
  // The paper's core claim at one point: at 800 Mbps offered on 1GbE the
  // accelerated protocol achieves more with less latency.
  PointConfig pc;
  pc.nodes = 8;
  pc.offered_mbps = 820;
  pc.warmup = util::msec(50);
  pc.measure = util::msec(200);
  pc.proto = bench_protocol(protocol::Variant::kOriginal);
  const PointResult orig = run_point(pc);
  pc.proto = bench_protocol(protocol::Variant::kAccelerated);
  const PointResult accel = run_point(pc);
  EXPECT_GT(accel.achieved_mbps, orig.achieved_mbps);
  EXPECT_LT(accel.mean_latency, orig.mean_latency);
}

TEST(RunPoint, OneRingPointIsDeterministic) {
  // Every single-ring figure comes through this point; any change to the
  // events a one-ring point runs, or to how it counts them, moves at least
  // one of these literals. Last re-pinned when a submit began to end an
  // idle token hold: the token now moves at other times, so the 0.2% loss
  // hits other packets, and with that loss p50 is set by where the 10 ms
  // token-retransmit stalls fall (seeds 1-11 read 129 us to 2.8 ms before,
  // 167 us to 4.1 ms after; lossless, p50/p99 went 112/353 -> 108/173 us).
  PointConfig pc;
  pc.nodes = 5;
  pc.fabric.loss_rate = 0.002;  // so that retransmits are pinned too
  pc.offered_mbps = 300;
  pc.warmup = util::msec(30);
  pc.measure = util::msec(80);
  pc.seed = 7;
  const PointResult r = run_point(pc);
  EXPECT_EQ(r.messages, 2003u);
  EXPECT_DOUBLE_EQ(r.achieved_mbps, 274.32);
  EXPECT_EQ(r.p50_latency, 2371626);
  EXPECT_EQ(r.p99_latency, 10644088);
  EXPECT_EQ(r.retransmits, 23u);
  EXPECT_DOUBLE_EQ(r.max_cpu_utilization, 0.057594343059410927);
}

TEST(Profiles, SpreadUsesConservativePriorityAndBigHeaders) {
  SimCluster cluster(2, simnet::FabricParams::one_gig(), {},
                     ImplProfile::kSpread);
  EXPECT_EQ(cluster.engine(0).config().priority,
            protocol::PriorityMethod::kConservative);
  EXPECT_GT(cluster.datagram_size(100),
            protocol::DataMsg::encoded_size(100, 0));
}

TEST(Curves, RunCurveProducesOnePointPerLoad) {
  PointConfig pc;
  pc.nodes = 2;
  pc.warmup = util::msec(20);
  pc.measure = util::msec(50);
  const Curve curve = run_curve("test", pc, {20, 40});
  ASSERT_EQ(curve.points.size(), 2u);
  EXPECT_EQ(curve.points[0].offered_mbps, 20);
  EXPECT_EQ(curve.points[1].offered_mbps, 40);
  EXPECT_LT(curve.points[0].achieved_mbps, curve.points[1].achieved_mbps);
}

TEST(MergedMetrics, ClusterTotalsCountRestartedIncarnations) {
  // Submits rejected by a node's first incarnation stay in the merged
  // registry after a restart, the way its deliveries do.
  protocol::ProtocolConfig cfg;
  cfg.max_pending = 4;
  SimCluster cluster(3, simnet::FabricParams::one_gig(), cfg,
                     ImplProfile::kLibrary);
  cluster.enable_metrics();
  // Nothing drains node 1's queue in these 2 ms (the cluster is never
  // started, the restarted node is still in discovery): 4 of each 10
  // submits queue and the rest are rejected.
  auto flood = [&cluster] {
    for (int i = 0; i < 10; ++i) {
      cluster.submit(1, protocol::Service::kAgreed,
                     std::vector<std::byte>(64));
    }
  };
  flood();
  cluster.run_until(util::msec(1));
  const uint64_t first = cluster.engine(1).stats().submit_rejected;
  cluster.crash_node(1);
  cluster.restart_node(1);
  flood();
  cluster.run_until(util::msec(2));
  const uint64_t second = cluster.engine(1).stats().submit_rejected;
  ASSERT_GT(first, 0u);
  ASSERT_GT(second, 0u);

  const obs::MetricsRegistry merged = cluster.merged_metrics();
  const obs::Counter* rejected =
      merged.find_counter("cluster", "submit_rejected");
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(rejected->value(), first + second);
}

}  // namespace
}  // namespace accelring::harness
