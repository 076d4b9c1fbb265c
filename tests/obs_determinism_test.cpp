// The observability layer's core contract: attaching metrics must not
// perturb the execution. Recording is plain memory writes against pure
// clock getters, so a run with registries attached and queried must be
// event-identical — same trace streams, same deliveries, same event count,
// same wire bytes — to the same seed without them. This A/B is what lets
// run_point and the campaign runner enable metrics unconditionally without
// invalidating seed-reproducibility.
#include <gtest/gtest.h>

#include "harness/sweep.hpp"
#include "multiring/ring_set.hpp"
#include "obs/export.hpp"

namespace accelring::harness {
namespace {

using TraceTuple = std::tuple<Nanos, int, int64_t, int64_t>;

std::vector<TraceTuple> serialize(const util::Tracer& tracer) {
  std::vector<TraceTuple> out;
  for (const util::TraceRecord& r : tracer.snapshot()) {
    out.emplace_back(r.at, static_cast<int>(r.event), r.a, r.b);
  }
  return out;
}

struct RunFingerprint {
  std::vector<std::tuple<int, uint16_t, protocol::SeqNum, Nanos>> deliveries;
  std::vector<std::vector<TraceTuple>> traces;  // per node
  std::vector<uint64_t> trace_totals;           // per node, pre-wrap count
  uint64_t events = 0;
  uint64_t wire_bytes = 0;

  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint run_single(uint64_t seed, bool metrics, double loss) {
  protocol::ProtocolConfig cfg;
  SimCluster cluster(5, simnet::FabricParams::one_gig(), cfg,
                     ImplProfile::kDaemon, seed);
  if (metrics) cluster.enable_metrics();
  cluster.net().set_loss_rate(loss);
  RunFingerprint fp;
  cluster.set_on_deliver(
      [&fp](int node, const protocol::Delivery& d, Nanos at) {
        fp.deliveries.emplace_back(node, d.sender, d.seq, at);
      });
  cluster.start_static();
  RateInjector::Options opt;
  opt.aggregate_mbps = 250;
  opt.payload_size = 700;
  opt.stop = util::msec(60);
  RateInjector injector(
      cluster.eq(), cluster.size(), opt,
      [&cluster](int node, uint32_t, std::vector<std::byte> payload) {
        cluster.submit(node, protocol::Service::kAgreed, std::move(payload));
      });
  injector.arm();
  cluster.run_until(util::msec(150));
  if (metrics) {
    // Query while the run's registry is live: exporting must also be inert
    // (it only reads), and the A/B proves the queries changed nothing.
    obs::MetricsRegistry merged = cluster.merged_metrics();
    EXPECT_FALSE(obs::registry_to_json(merged).empty());
    EXPECT_GT(
        merged.histogram("protocol", "token_rotation_ns").count(), 0u);
    EXPECT_GT(merged.histogram("protocol", "origin_agreed_ns").count(), 0u);
  }
  for (int i = 0; i < cluster.size(); ++i) {
    fp.traces.push_back(serialize(cluster.tracer(i)));
    fp.trace_totals.push_back(cluster.tracer(i).total_recorded());
  }
  fp.events = cluster.eq().events_executed();
  fp.wire_bytes = cluster.net().stats().wire_bytes;
  return fp;
}

RunFingerprint run_multi(uint64_t seed, bool metrics) {
  multiring::MultiRingConfig mcfg;
  mcfg.rings = 4;
  mcfg.nodes_per_ring = 4;
  mcfg.fabric = simnet::FabricParams::ten_gig();
  mcfg.seed = seed;
  multiring::RingSet rings(mcfg);
  if (metrics) rings.enable_metrics();
  RunFingerprint fp;
  rings.set_on_merged([&fp](int node, int ring, const protocol::Delivery& d,
                            Nanos at) {
    fp.deliveries.emplace_back(node * 16 + ring, d.sender, d.seq, at);
  });
  rings.start_static();
  for (int k = 0; k < 200; ++k) {
    rings.eq().schedule(util::usec(200) + util::usec(40) * k, [&rings, k] {
      const int node = k % rings.nodes_per_ring();
      std::vector<std::byte> payload(64, std::byte{0x5a});
      rings.submit_keyed(node, static_cast<uint64_t>(k) * 1315423911u,
                         protocol::Service::kAgreed, std::move(payload));
    });
  }
  rings.run_until(util::msec(60));
  if (metrics) {
    obs::MetricsRegistry merged = rings.merged_metrics();
    EXPECT_GT(merged.counter("merger", "merged").value(), 0u);
    EXPECT_GT(
        merged.histogram("protocol", "token_rotation_ns").count(), 0u);
  }
  for (int r = 0; r < rings.num_rings(); ++r) {
    for (int n = 0; n < rings.nodes_per_ring(); ++n) {
      fp.traces.push_back(serialize(rings.ring(r).tracer(n)));
      fp.trace_totals.push_back(rings.ring(r).tracer(n).total_recorded());
    }
    fp.wire_bytes += rings.ring(r).net().stats().wire_bytes;
  }
  fp.events = rings.eq().events_executed();
  return fp;
}

TEST(ObsDeterminism, MetricsDoNotPerturbSingleRing) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const RunFingerprint off = run_single(seed, /*metrics=*/false, 0.0);
    const RunFingerprint on = run_single(seed, /*metrics=*/true, 0.0);
    EXPECT_EQ(off, on) << "seed " << seed;
    EXPECT_FALSE(off.deliveries.empty()) << "seed " << seed;
  }
}

TEST(ObsDeterminism, MetricsDoNotPerturbSingleRingUnderLoss) {
  // Loss exercises the retransmission instrumentation (rtr counters, token
  // retransmits) — the recording paths a clean run never reaches.
  for (uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    const RunFingerprint off = run_single(seed, /*metrics=*/false, 0.02);
    const RunFingerprint on = run_single(seed, /*metrics=*/true, 0.02);
    EXPECT_EQ(off, on) << "seed " << seed;
  }
}

TEST(ObsDeterminism, MetricsDoNotPerturbMultiRing) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const RunFingerprint off = run_multi(seed, /*metrics=*/false);
    const RunFingerprint on = run_multi(seed, /*metrics=*/true);
    EXPECT_EQ(off, on) << "seed " << seed;
    EXPECT_FALSE(off.deliveries.empty()) << "seed " << seed;
  }
}

TEST(ObsDeterminism, MeasuredPointIsSeedStable) {
  // run_point enables metrics internally; two invocations at one seed must
  // produce identical measured numbers in every result field (the
  // bench-level restatement), on one ring and on a merged pair.
  PointConfig one;
  one.nodes = 5;
  one.offered_mbps = 200;
  one.warmup = util::msec(30);
  one.measure = util::msec(60);
  one.seed = 9;
  PointConfig two;
  two.rings = 2;
  two.nodes = 4;
  two.seed = 9;
  two.offered_mbps = 120;
  two.payload_size = 400;
  two.warmup = util::msec(30);
  two.measure = util::msec(60);
  for (const PointConfig& pc : {one, two}) {
    SCOPED_TRACE(testing::Message() << "rings=" << pc.rings);
    const PointResult a = run_point(pc);
    const PointResult b = run_point(pc);
    EXPECT_GT(a.messages, 0u);
    EXPECT_EQ(a.offered_mbps, b.offered_mbps);
    EXPECT_EQ(a.achieved_mbps, b.achieved_mbps);
    EXPECT_EQ(a.mean_latency, b.mean_latency);
    EXPECT_EQ(a.p50_latency, b.p50_latency);
    EXPECT_EQ(a.p90_latency, b.p90_latency);
    EXPECT_EQ(a.p99_latency, b.p99_latency);
    EXPECT_EQ(a.p999_latency, b.p999_latency);
    EXPECT_EQ(a.max_latency, b.max_latency);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.buffer_drops, b.buffer_drops);
    EXPECT_EQ(a.socket_drops, b.socket_drops);
    EXPECT_EQ(a.retransmits, b.retransmits);
    EXPECT_EQ(a.rtr_requested, b.rtr_requested);
    EXPECT_EQ(a.token_retransmits, b.token_retransmits);
    EXPECT_EQ(a.submit_rejected, b.submit_rejected);
    EXPECT_EQ(a.max_cpu_utilization, b.max_cpu_utilization);
    EXPECT_EQ(a.per_ring_mbps.size(), static_cast<size_t>(pc.rings));
    EXPECT_EQ(a.per_ring_mbps, b.per_ring_mbps);
    EXPECT_EQ(a.skip_msgs, b.skip_msgs);
    ASSERT_TRUE(a.metrics && b.metrics);
    EXPECT_EQ(obs::registry_to_json(*a.metrics),
              obs::registry_to_json(*b.metrics));
    const obs::Histogram* dist =
        a.metrics->find_histogram("harness", "delivery_latency_ns");
    ASSERT_NE(dist, nullptr);
    EXPECT_GT(dist->count(), 0u);
  }
}

}  // namespace
}  // namespace accelring::harness
