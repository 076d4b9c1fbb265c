// Adaptive failure detection: estimator unit behaviour, plus the A/B
// experiment the feature exists for — at a loss rate where the static
// timeouts eject at least one live member, the adaptive configuration
// (same base constants) keeps the full ring.
#include <gtest/gtest.h>

#include "check/campaign.hpp"
#include "protocol/timeout_estimator.hpp"
#include "util/time.hpp"

namespace accelring {
namespace {

using protocol::ProtocolConfig;
using protocol::TimeoutEstimator;

TEST(TimeoutEstimator, ReportsStaticValuesUntilWarm) {
  ProtocolConfig cfg;
  cfg.adaptive_timeouts = true;
  TimeoutEstimator est(cfg);
  EXPECT_EQ(est.token_loss(), cfg.timeouts.token_loss);
  est.sample(util::msec(1));
  est.sample(util::msec(1));
  EXPECT_FALSE(est.warm());
  EXPECT_EQ(est.token_loss(), cfg.timeouts.token_loss);
  EXPECT_EQ(est.consensus(), cfg.timeouts.consensus);
  est.sample(util::msec(1));
  EXPECT_TRUE(est.warm());
  EXPECT_NE(est.token_loss(), cfg.timeouts.token_loss);
}

TEST(TimeoutEstimator, StaticWhenDisabled) {
  ProtocolConfig cfg;
  cfg.adaptive_timeouts = false;
  TimeoutEstimator est(cfg);
  for (int i = 0; i < 10; ++i) est.sample(util::usec(500));
  EXPECT_EQ(est.token_loss(), cfg.timeouts.token_loss);
  EXPECT_EQ(est.consensus(), cfg.timeouts.consensus);
}

TEST(TimeoutEstimator, TracksRotationAndStaysClamped) {
  ProtocolConfig cfg;
  cfg.adaptive_timeouts = true;
  TimeoutEstimator est(cfg);
  for (int i = 0; i < 20; ++i) est.sample(util::usec(800));
  // Quiet ring: detection much faster than the 100ms static constant, but
  // never below two token-retransmit intervals.
  EXPECT_LT(est.token_loss(), cfg.timeouts.token_loss);
  EXPECT_GE(est.token_loss(), 2 * cfg.timeouts.token_retransmit);

  // A sustained slowdown raises the estimate but the ceiling holds.
  for (int i = 0; i < 200; ++i) est.sample(util::msec(300));
  EXPECT_LE(est.token_loss(), 4 * cfg.timeouts.token_loss);
  EXPECT_LE(est.consensus(), 4 * cfg.timeouts.consensus);
}

TEST(TimeoutEstimator, ResetForgetsHistory) {
  ProtocolConfig cfg;
  cfg.adaptive_timeouts = true;
  TimeoutEstimator est(cfg);
  for (int i = 0; i < 5; ++i) est.sample(util::msec(2));
  est.reset();
  EXPECT_FALSE(est.warm());
  EXPECT_EQ(est.samples(), 0u);
  EXPECT_EQ(est.token_loss(), cfg.timeouts.token_loss);
}

TEST(TimeoutEstimator, AnExpiryBacksOffOncePerToken) {
  ProtocolConfig cfg;
  cfg.adaptive_timeouts = true;
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

  ProtocolConfig fixed;
  TimeoutEstimator static_est(fixed);
  for (int i = 0; i < 20; ++i) static_est.sample(util::usec(200));
  EXPECT_FALSE(static_est.back_off(util::msec(30)));
}

TEST(TimeoutEstimator, VarianceWidensTheTimeout) {
  ProtocolConfig cfg;
  cfg.adaptive_timeouts = true;
  TimeoutEstimator steady(cfg);
  TimeoutEstimator jittery(cfg);
  for (int i = 0; i < 40; ++i) {
    steady.sample(util::msec(1));
    jittery.sample(i % 2 == 0 ? util::usec(200) : util::msec(2));
  }
  EXPECT_GT(jittery.token_loss(), steady.token_loss());
}

// --- A/B: live-member ejection under a loss burst --------------------------

/// One heavy loss burst against an otherwise healthy 5-node ring. The
/// schedule name is deliberately not a catalogue scenario, so run_schedule
/// treats it as a plain engine-level run.
check::Schedule burst_schedule(double rate, util::Nanos at,
                               util::Nanos duration) {
  check::Schedule s{"ab_loss_burst", {}};
  check::FaultEvent e;
  e.kind = check::FaultKind::kLossBurst;
  e.at = at;
  e.rate = rate;
  e.duration = duration;
  s.events.push_back(e);
  return s;
}

uint64_t false_ejections_across_seeds(bool adaptive, double rate,
                                      bool packing) {
  check::RunOptions opt;
  opt.nodes = 5;
  opt.horizon = util::msec(250);
  opt.drain = util::msec(300);
  opt.proto = check::fast_proto_config();
  opt.proto.adaptive_timeouts = adaptive;
  opt.proto.enable_packing = packing;
  uint64_t total = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const auto schedule =
        burst_schedule(rate, util::msec(60), util::msec(120));
    const check::RunResult run = check::run_schedule(opt, schedule, seed);
    // Safety must hold in both configurations; the A/B is about liveness.
    EXPECT_TRUE(run.ok) << "adaptive=" << adaptive << " packing=" << packing
                        << " seed=" << seed << "\n" << run.report;
    total += run.false_ejections;
  }
  return total;
}

TEST(AdaptiveTimeoutAB, NoFalseEjectionsWhereStaticTimeoutsEject) {
  // At this loss rate the static 30ms token-loss timeout ejects live
  // members (the token stalls longer than the constant while data still
  // flows); the adaptive configuration, with the very same base constants,
  // must keep every live member in the ring across all seeds. Much past
  // ~0.5 loss both configurations eject — the token genuinely cannot
  // circulate — so the A/B window sits below that.
  // Both packing settings: packed, the lighter token load moves where the
  // static timeout starts ejecting.
  const double kRate = 0.40;
  for (const bool packing : {false, true}) {
    SCOPED_TRACE(packing ? "packed" : "unpacked");
    const uint64_t fixed = false_ejections_across_seeds(false, kRate, packing);
    const uint64_t adaptive =
        false_ejections_across_seeds(true, kRate, packing);
    EXPECT_GE(fixed, 1u) << "burst too weak to eject under static timeouts; "
                            "the A/B comparison is vacuous";
    EXPECT_EQ(adaptive, 0u);
  }
}

}  // namespace
}  // namespace accelring
