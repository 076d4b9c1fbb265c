// Adaptive failure detection: estimator unit behaviour, plus the
// experiment the detector exists for — under a loss burst that stalls the
// token longer than the static token-loss base, so a static timeout would
// eject a live member, the detector keeps the full ring.
#include <gtest/gtest.h>

#include <algorithm>

#include "check/campaign.hpp"
#include "harness/cluster.hpp"
#include "harness/workload.hpp"
#include "protocol/timeout_estimator.hpp"
#include "util/time.hpp"

namespace accelring {
namespace {

using protocol::ProtocolConfig;
using protocol::TimeoutEstimator;

TEST(TimeoutEstimator, ReportsStaticValuesUntilWarm) {
  ProtocolConfig cfg;
  TimeoutEstimator est(cfg);
  EXPECT_EQ(est.token_loss(), cfg.timeouts.token_loss);
  est.sample(util::msec(1));
  est.sample(util::msec(1));
  EXPECT_FALSE(est.warm());
  EXPECT_EQ(est.token_loss(), cfg.timeouts.token_loss);
  est.sample(util::msec(1));
  EXPECT_TRUE(est.warm());
  EXPECT_NE(est.token_loss(), cfg.timeouts.token_loss);
}

TEST(TimeoutEstimator, TracksRotationAndStaysClamped) {
  ProtocolConfig cfg;
  TimeoutEstimator est(cfg);
  for (int i = 0; i < 20; ++i) est.sample(util::usec(800));
  // Quiet ring: detection much faster than the 100ms static constant, but
  // never below two token-retransmit intervals.
  EXPECT_LT(est.token_loss(), cfg.timeouts.token_loss);
  EXPECT_GE(est.token_loss(), 2 * cfg.timeouts.token_retransmit);

  // A sustained slowdown raises the estimate but the ceiling holds.
  for (int i = 0; i < 200; ++i) est.sample(util::msec(300));
  EXPECT_LE(est.token_loss(), 4 * cfg.timeouts.token_loss);
}

TEST(TimeoutEstimator, ResetForgetsHistory) {
  ProtocolConfig cfg;
  TimeoutEstimator est(cfg);
  for (int i = 0; i < 5; ++i) est.sample(util::msec(2));
  est.reset();
  EXPECT_FALSE(est.warm());
  EXPECT_EQ(est.samples(), 0u);
  EXPECT_EQ(est.token_loss(), cfg.timeouts.token_loss);
}

TEST(TimeoutEstimator, AnExpiryBacksOffOncePerToken) {
  ProtocolConfig cfg;
  TimeoutEstimator est(cfg);
  EXPECT_FALSE(est.back_off(util::msec(20)));  // cold: static timeouts
  for (int i = 0; i < 20; ++i) est.sample(util::usec(200));
  const util::Nanos warm = est.token_loss();
  // The first expiry is a sample of the stalled rotation and widens the
  // timeout; the second, with no token between, is loss.
  EXPECT_TRUE(est.back_off(warm));
  EXPECT_GT(est.token_loss(), warm + 2 * cfg.timeouts.token_retransmit);
  EXPECT_FALSE(est.back_off(est.token_loss()));
  // A token rotation sample re-enables the backoff.
  est.sample(util::usec(200));
  EXPECT_TRUE(est.back_off(est.token_loss()));
}

TEST(TimeoutEstimator, VarianceWidensTheTimeout) {
  ProtocolConfig cfg;
  TimeoutEstimator steady(cfg);
  TimeoutEstimator jittery(cfg);
  for (int i = 0; i < 40; ++i) {
    steady.sample(util::msec(1));
    jittery.sample(i % 2 == 0 ? util::usec(200) : util::msec(2));
  }
  EXPECT_GT(jittery.token_loss(), steady.token_loss());
}

// --- Live-member ejection under a loss burst ------------------------------

constexpr double kRate = 0.40;
constexpr util::Nanos kBurstAt = util::msec(60);
constexpr util::Nanos kBurstFor = util::msec(120);

/// One heavy loss burst against an otherwise healthy 5-node ring. The
/// schedule name is deliberately not a catalogue scenario, so run_schedule
/// treats it as a plain engine-level run.
check::Schedule burst_schedule() {
  check::Schedule s{"ab_loss_burst", {}};
  check::FaultEvent e;
  e.kind = check::FaultKind::kLossBurst;
  e.at = kBurstAt;
  e.rate = kRate;
  e.duration = kBurstFor;
  s.events.push_back(e);
  return s;
}

uint64_t false_ejections_across_seeds(bool packing) {
  check::RunOptions opt;
  opt.nodes = 5;
  opt.horizon = util::msec(250);
  opt.drain = util::msec(300);
  opt.proto = check::fast_proto_config();
  opt.proto.enable_packing = packing;
  uint64_t total = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const check::RunResult run =
        check::run_schedule(opt, burst_schedule(), seed);
    EXPECT_TRUE(run.ok) << "packing=" << packing << " seed=" << seed << "\n"
                        << run.report;
    total += run.false_ejections;
  }
  return total;
}

/// The longest gap between two tokens any member accepted, on a 5-node ring
/// with the same configuration, burst and seeds: what a static token-loss
/// timeout would have had to outwait.
util::Nanos longest_token_stall(bool packing) {
  protocol::ProtocolConfig cfg = check::fast_proto_config();
  cfg.enable_packing = packing;
  util::Nanos longest = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    harness::SimCluster cluster(5, simnet::FabricParams::one_gig(), cfg,
                                harness::ImplProfile::kLibrary, seed);
    cluster.enable_metrics();
    cluster.start_static();
    for (uint32_t i = 0; i < 250; ++i) {
      cluster.eq().schedule(util::msec(1) * i, [&cluster, i] {
        const harness::PayloadStamp stamp{cluster.eq().now(), i % 5, i};
        cluster.submit(static_cast<int>(i % 5), protocol::Service::kAgreed,
                       harness::make_payload(64, stamp));
      });
    }
    cluster.eq().schedule(kBurstAt,
                          [&cluster] { cluster.net().set_loss_rate(kRate); });
    cluster.eq().schedule(kBurstAt + kBurstFor,
                          [&cluster] { cluster.net().set_loss_rate(0); });
    cluster.run_until(util::msec(250));
    for (int n = 0; n < cluster.size(); ++n) {
      const obs::Histogram& rotation =
          cluster.metrics(n)->histogram("protocol", "token_rotation_ns");
      longest = std::max(longest, rotation.max());
    }
  }
  return longest;
}

TEST(AdaptiveTimeoutAB, NoFalseEjectionsWhereStaticTimeoutsEject) {
  // At this loss rate the token stalls longer than the static 30 ms
  // token-loss base, so a static timeout would eject live members (data
  // still flows); the failure detector, with the very same base constants,
  // must keep every live member in the ring across all seeds. Much past
  // ~0.5 loss the token genuinely cannot circulate, so the window sits
  // below that. Both packing settings: packed, the lighter token load moves
  // where the token stalls.
  const util::Nanos base = check::fast_proto_config().timeouts.token_loss;
  for (const bool packing : {false, true}) {
    SCOPED_TRACE(packing ? "packed" : "unpacked");
    EXPECT_GT(longest_token_stall(packing), base)
        << "burst too weak to stall the token past the static timeout; "
           "the test is vacuous";
    EXPECT_EQ(false_ejections_across_seeds(packing), 0u);
  }
}

}  // namespace
}  // namespace accelring
