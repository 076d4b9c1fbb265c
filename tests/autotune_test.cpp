// Tests for adaptive flow control: starting from the untuned defaults the
// paper complains about, the windows grow until the ring carries the load;
// under loss they back off.
#include <gtest/gtest.h>

#include "harness/sweep.hpp"

namespace accelring::harness {
namespace {

RateInjector agreed_injector(SimCluster& cluster, RateInjector::Options opt) {
  return RateInjector(
      cluster.eq(), cluster.size(), opt,
      [&cluster](int node, uint32_t, std::vector<std::byte> payload) {
        cluster.submit(node, protocol::Service::kAgreed, std::move(payload));
      });
}

TEST(AutoTune, GrowsWindowsUnderBacklog) {
  PointConfig pc;
  pc.nodes = 8;
  pc.offered_mbps = 700;
  pc.warmup = util::msec(150);  // give the tuner time to ramp
  pc.measure = util::msec(300);
  pc.proto = bench_protocol(protocol::Variant::kAccelerated);
  pc.proto.personal_window = 2;  // hopeless untuned start: ~2 msgs/round
  pc.proto.accelerated_window = 1;
  pc.proto.auto_tune = true;
  const PointResult tuned = run_point(pc);
  // Without tuning, personal_window=2 caps throughput far below 700 Mbps.
  pc.proto.auto_tune = false;
  const PointResult untuned = run_point(pc);
  EXPECT_LT(untuned.achieved_mbps, 450.0);
  EXPECT_GT(tuned.achieved_mbps, 650.0);
}

TEST(AutoTune, WindowActuallyAdapts) {
  protocol::ProtocolConfig cfg = bench_protocol(protocol::Variant::kAccelerated);
  cfg.personal_window = 2;
  cfg.accelerated_window = 1;
  cfg.auto_tune = true;
  SimCluster cluster(4, simnet::FabricParams::one_gig(), cfg,
                     ImplProfile::kLibrary);
  cluster.start_static();
  RateInjector::Options opt;
  opt.aggregate_mbps = 600;
  opt.payload_size = 1350;
  opt.stop = util::msec(300);
  RateInjector injector = agreed_injector(cluster, opt);
  injector.arm();
  cluster.run_until(util::msec(400));
  EXPECT_GT(cluster.engine(0).config().personal_window, 2u);
  EXPECT_GT(cluster.engine(0).config().accelerated_window, 1u);
}

TEST(AutoTune, BacksOffUnderLoss) {
  protocol::ProtocolConfig cfg = bench_protocol(protocol::Variant::kAccelerated);
  cfg.personal_window = 60;
  cfg.accelerated_window = 45;
  cfg.global_window = 600;
  cfg.auto_tune = true;
  SimCluster cluster(4, simnet::FabricParams::one_gig(), cfg,
                     ImplProfile::kLibrary, 7);
  cluster.net().set_loss_rate(0.05);  // heavy loss: constant retransmission
  cluster.start_static();
  RateInjector::Options opt;
  opt.aggregate_mbps = 500;
  opt.payload_size = 1350;
  opt.stop = util::msec(400);
  RateInjector injector = agreed_injector(cluster, opt);
  injector.arm();
  cluster.run_until(util::msec(500));
  EXPECT_LT(cluster.engine(0).config().personal_window, 60u);
}

TEST(AutoTune, RespectsBounds) {
  protocol::ProtocolConfig cfg = bench_protocol(protocol::Variant::kAccelerated);
  cfg.personal_window = 2;
  cfg.auto_tune = true;
  cfg.min_personal_window = 2;
  cfg.max_personal_window = 10;
  SimCluster cluster(4, simnet::FabricParams::one_gig(), cfg,
                     ImplProfile::kLibrary);
  cluster.start_static();
  RateInjector::Options opt;
  opt.aggregate_mbps = 900;  // way beyond what window 10 can carry
  opt.payload_size = 1350;
  opt.stop = util::msec(400);
  RateInjector injector = agreed_injector(cluster, opt);
  injector.arm();
  cluster.run_until(util::msec(500));
  EXPECT_LE(cluster.engine(0).config().personal_window, 10u);
  EXPECT_GE(cluster.engine(0).config().personal_window, 2u);
}

}  // namespace
}  // namespace accelring::harness
