// Simulator determinism: identical seeds produce bit-identical executions —
// the property every debugging and regression workflow here depends on.
#include <gtest/gtest.h>

#include "harness/sweep.hpp"

namespace accelring::harness {
namespace {

struct RunFingerprint {
  std::vector<std::tuple<int, uint16_t, protocol::SeqNum, Nanos>> deliveries;
  uint64_t events = 0;
  uint64_t wire_bytes = 0;

  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint run_once(uint64_t seed, double loss) {
  protocol::ProtocolConfig cfg;
  SimCluster cluster(5, simnet::FabricParams::one_gig(), cfg,
                     ImplProfile::kDaemon, seed);
  cluster.net().set_loss_rate(loss);
  RunFingerprint fp;
  cluster.set_on_deliver(
      [&fp](int node, const protocol::Delivery& d, Nanos at) {
        fp.deliveries.emplace_back(node, d.sender, d.seq, at);
      });
  cluster.start_static();
  RateInjector::Options opt;
  opt.aggregate_mbps = 300;
  opt.payload_size = 700;
  opt.stop = util::msec(80);
  RateInjector injector(
      cluster.eq(), cluster.size(), opt,
      [&cluster](int node, uint32_t, std::vector<std::byte> payload) {
        cluster.submit(node, protocol::Service::kAgreed, std::move(payload));
      });
  injector.arm();
  cluster.run_until(util::msec(200));
  fp.events = cluster.eq().events_executed();
  fp.wire_bytes = cluster.net().stats().wire_bytes;
  return fp;
}

TEST(Determinism, SameSeedSameExecution) {
  const RunFingerprint a = run_once(42, 0.0);
  const RunFingerprint b = run_once(42, 0.0);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.deliveries.empty());
}

TEST(Determinism, SameSeedSameExecutionUnderLoss) {
  const RunFingerprint a = run_once(7, 0.03);
  const RunFingerprint b = run_once(7, 0.03);
  EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsDifferUnderLoss) {
  // Loss draws differ across seeds, so timing fingerprints must diverge.
  const RunFingerprint a = run_once(1, 0.03);
  const RunFingerprint b = run_once(2, 0.03);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace accelring::harness
