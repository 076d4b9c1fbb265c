// Gray-failure detection and quarantine: detector hysteresis edges, the
// quarantine/probation state machine, and cluster-level end-to-end behaviour
// (a straggler is evicted and the ring's throughput recovers; a healed
// member earns its way back through probation; borderline members never
// flap).
#include <gtest/gtest.h>


#include "harness/cluster.hpp"
#include "harness/workload.hpp"
#include "membership/quarantine.hpp"
#include "protocol/gray_detector.hpp"
#include "util/time.hpp"

namespace accelring {
namespace {

using harness::ImplProfile;
using harness::SimCluster;
using membership::QuarantineManager;
using membership::QuarantineState;
using protocol::GrayFailureDetector;
using protocol::ProcessId;
using protocol::ProtocolConfig;
using protocol::TokenHealth;

// ---------------------------------------------------------------------------
// GrayFailureDetector
// ---------------------------------------------------------------------------

constexpr uint32_t kSuspectRounds = GrayFailureDetector::kSuspectRounds;
constexpr uint32_t kRtrWindow = GrayFailureDetector::kRtrWindow;
constexpr uint32_t kHold = QuarantineManager::kQuarantineRotations;

/// Health vector for a 5-member ring where member `slow` (if >= 0) has
/// `slow_unit` µs of hold per datagram and everyone else `unit`.
std::vector<TokenHealth> health_vec(double unit, int slow = -1,
                                    double slow_unit = 0.0,
                                    uint32_t rtr_member = 0xFFFF) {
  std::vector<TokenHealth> v;
  for (ProcessId p = 0; p < 5; ++p) {
    TokenHealth h;
    h.pid = p;
    h.work = 10;
    const double u = (p == slow) ? slow_unit : unit;
    h.hold_us = static_cast<uint32_t>(u * h.work);
    h.rtr_count = p == rtr_member ? 2 : 0;
    v.push_back(h);
  }
  return v;
}

TEST(GrayDetector, SustainedSlownessConvictsAfterStreak) {
  GrayFailureDetector det(0);
  // Member 3 at ~12x the healthy unit cost, above the absolute floor.
  for (uint32_t i = 0; i + 1 < kSuspectRounds; ++i) {
    det.observe(health_vec(2.0, 3, 24.0));
    EXPECT_FALSE(det.verdict().has_value()) << "round " << i;
  }
  // The EWMA needs a couple of rounds to converge past the threshold, so
  // the streak may start late — but it must fire within a small multiple.
  std::optional<ProcessId> verdict;
  for (uint32_t i = 0; i < 3 * kSuspectRounds && !verdict; ++i) {
    det.observe(health_vec(2.0, 3, 24.0));
    verdict = det.verdict();
  }
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, 3);
  EXPECT_GE(det.streak(3), kSuspectRounds);
}

TEST(GrayDetector, OneSlowRotationResetsTheStreak) {
  GrayFailureDetector det(0);
  // Warm up the EWMA with the member solidly suspect...
  for (uint32_t i = 0; i + 2 < kSuspectRounds; ++i) {
    det.observe(health_vec(2.0, 3, 40.0));
  }
  // ...then one healthy rotation (EWMA snaps down fast enough at the edge
  // of the threshold after a string of healthy samples).
  for (int i = 0; i < 20; ++i) det.observe(health_vec(2.0, 3, 2.0));
  EXPECT_EQ(det.streak(3), 0u);
  EXPECT_FALSE(det.verdict().has_value());
}

TEST(GrayDetector, RingWideSlownessIsInvisible) {
  GrayFailureDetector det(0);
  // Everyone at 30x: the median moves with the ring, nobody stands out.
  for (uint32_t i = 0; i < 4 * kSuspectRounds; ++i) {
    det.observe(health_vec(60.0));
    EXPECT_FALSE(det.verdict().has_value());
  }
}

TEST(GrayDetector, IdleRingRatiosBelowFloorNeverConvict) {
  GrayFailureDetector det(0);
  // 10x ratio but everything under kMinUnitCostUs: noise, not a verdict.
  const double floor_us = GrayFailureDetector::kMinUnitCostUs;
  for (uint32_t i = 0; i < 4 * kSuspectRounds; ++i) {
    det.observe(health_vec(floor_us / 100.0, 3, floor_us / 10.0));
    EXPECT_FALSE(det.verdict().has_value());
  }
}

TEST(GrayDetector, NeverConvictsSelf) {
  GrayFailureDetector det(3);  // the slow member's own detector
  for (uint32_t i = 0; i < 4 * kSuspectRounds; ++i) {
    det.observe(health_vec(2.0, 3, 40.0));
  }
  EXPECT_GE(det.streak(3), kSuspectRounds);  // it knows it is slow...
  EXPECT_FALSE(det.verdict().has_value());       // ...but peers must act
}

TEST(GrayDetector, SustainedRtrPressureConvictsLossyReceiver) {
  GrayFailureDetector det(0);
  std::optional<ProcessId> verdict;
  for (uint32_t i = 0; i < kRtrWindow + 3 * kSuspectRounds && !verdict;
       ++i) {
    det.observe(health_vec(2.0, -1, 0.0, /*rtr_member=*/2));
    verdict = det.verdict();
  }
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, 2);
}

TEST(GrayDetector, UniformLossConvictsNobody) {
  GrayFailureDetector det(0);
  for (uint32_t i = 0; i < kRtrWindow + 4 * kSuspectRounds; ++i) {
    auto v = health_vec(2.0);
    for (auto& h : v) h.rtr_count = 1;  // iid loss: everyone asks
    det.observe(v);
    EXPECT_FALSE(det.verdict().has_value());
  }
}

TEST(GrayDetector, ResetDropsAllHistory) {
  GrayFailureDetector det(0);
  for (uint32_t i = 0; i < 2 * kSuspectRounds; ++i) {
    det.observe(health_vec(2.0, 3, 40.0));
  }
  ASSERT_TRUE(det.verdict().has_value());
  det.reset();
  EXPECT_FALSE(det.verdict().has_value());
  EXPECT_EQ(det.observations(), 0u);
  EXPECT_EQ(det.streak(3), 0u);
}

// ---------------------------------------------------------------------------
// QuarantineManager
// ---------------------------------------------------------------------------

TEST(Quarantine, LifecycleQuarantineProbationReadmit) {
  QuarantineManager q;
  EXPECT_EQ(q.state(7), QuarantineState::kHealthy);

  const uint32_t hold = q.quarantine(7);
  EXPECT_EQ(hold, kHold);
  EXPECT_TRUE(q.blocked(7));
  EXPECT_EQ(q.state(7), QuarantineState::kQuarantined);

  // Every probe during the hold is ignored; the last one tips probation.
  bool entered_probation = false;
  for (uint32_t i = 0; i < hold; ++i) {
    EXPECT_TRUE(q.filter_probe(7, entered_probation));
  }
  EXPECT_TRUE(entered_probation);
  EXPECT_EQ(q.state(7), QuarantineState::kProbation);

  // Probation: still blocked until the clean-probe quota is met.
  for (uint32_t i = 0; i + 1 < QuarantineManager::kProbationRotations; ++i) {
    EXPECT_TRUE(q.filter_probe(7, entered_probation));
  }
  EXPECT_FALSE(q.filter_probe(7, entered_probation));  // finally admitted
  EXPECT_FALSE(q.blocked(7));

  EXPECT_TRUE(q.note_installed(7));   // entry existed: a real re-admission
  EXPECT_FALSE(q.note_installed(7));  // idempotent
  EXPECT_EQ(q.state(7), QuarantineState::kHealthy);
  ASSERT_EQ(q.victims().size(), 1u);
  EXPECT_EQ(q.victims()[0], 7);
}

TEST(Quarantine, RepeatOffendersDoubleTheHoldCappedAt16x) {
  QuarantineManager q;
  EXPECT_EQ(q.quarantine(7), kHold);
  q.release(7);
  EXPECT_EQ(q.quarantine(7), kHold * 2);
  q.release(7);
  EXPECT_EQ(q.quarantine(7), kHold * 4);
  q.release(7);
  EXPECT_EQ(q.quarantine(7), kHold * 8);
  q.release(7);
  EXPECT_EQ(q.quarantine(7), kHold * 16);
  q.release(7);
  EXPECT_EQ(q.quarantine(7), kHold * 16);  // capped
}

TEST(Quarantine, AdoptTakesTheStricterView) {
  QuarantineManager q;
  EXPECT_TRUE(q.adopt(5, 10));  // newly blocks a healthy pid
  EXPECT_TRUE(q.blocked(5));
  EXPECT_FALSE(q.adopt(5, 3));  // weaker peer view changes nothing
  // Stronger peer view extends the hold: 12 probes, not 10, to probation.
  EXPECT_FALSE(q.adopt(5, 12));
  bool entered = false;
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(q.filter_probe(5, entered));
  }
  EXPECT_EQ(q.state(5), QuarantineState::kProbation);
}

TEST(Quarantine, ExportCarriesQuarantinedButNotProbation) {
  QuarantineManager q;
  q.adopt(3, 2);
  q.adopt(4, 9);
  EXPECT_EQ(q.export_set().size(), 2u);
  bool entered = false;
  q.filter_probe(3, entered);
  q.filter_probe(3, entered);  // 3 enters probation
  ASSERT_TRUE(entered);
  const auto exported = q.export_set();
  ASSERT_EQ(exported.size(), 1u);
  EXPECT_EQ(exported[0].first, 4);
}

// ---------------------------------------------------------------------------
// Cluster end-to-end
// ---------------------------------------------------------------------------

ProtocolConfig gray_cfg() {
  ProtocolConfig cfg;
  cfg.timeouts.token_loss = util::msec(30);
  cfg.timeouts.join = util::msec(5);
  cfg.timeouts.consensus = util::msec(60);
  cfg.gray.enabled = true;
  return cfg;
}

/// Drive a 5-node cluster with a steady per-node workload; returns agreed
/// deliveries observed at node 0 inside [from, to).
struct E2eRun {
  SimCluster cluster;
  uint64_t window_delivered = 0;

  E2eRun(uint64_t seed, util::Nanos horizon, util::Nanos from, util::Nanos to)
      : cluster(5, simnet::FabricParams::one_gig(), gray_cfg(),
                ImplProfile::kLibrary, seed) {
    cluster.add_on_deliver([this, from, to](int node, const protocol::Delivery&,
                                            util::Nanos at) {
      if (node == 0 && at >= from && at < to) ++window_delivered;
    });
    const int64_t shots = horizon / util::msec(1);
    for (int node = 0; node < 5; ++node) {
      for (int64_t k = 0; k < shots; ++k) {
        const util::Nanos at =
            util::msec(1) * k + util::usec(200) * node + util::usec(50);
        cluster.eq().schedule(at, [this, node] {
          if (cluster.net().host_down(node)) return;
          cluster.submit(node, protocol::Service::kAgreed,
                         std::vector<std::byte>(64));
        });
      }
    }
    cluster.start_static();
  }
};

TEST(QuarantineE2e, StragglerIsEvictedAndThroughputRecovers) {
  const util::Nanos kHorizon = util::sec(2);
  // Measure in the steady post-quarantine window.
  const util::Nanos kFrom = util::msec(1000);
  const util::Nanos kTo = util::msec(2000);

  E2eRun baseline(21, kHorizon, kFrom, kTo);
  baseline.cluster.run_until(kHorizon);

  E2eRun faulted(21, kHorizon, kFrom, kTo);
  faulted.cluster.eq().schedule(util::msec(200), [&faulted] {
    faulted.cluster.process(3).set_cpu_multiplier(10.0);
  });
  faulted.cluster.run_until(kHorizon);

  const harness::ClusterStats stats = faulted.cluster.stats();
  EXPECT_GE(stats.quarantines(), 1u);
  bool victim_recorded = false;
  for (int n = 0; n < 5; ++n) {
    for (ProcessId v : faulted.cluster.engine(n).quarantine_victims()) {
      EXPECT_EQ(v, 3) << "only the straggler may be quarantined";
      victim_recorded = victim_recorded || v == 3;
    }
  }
  EXPECT_TRUE(victim_recorded);
  // Node 0's ring no longer contains the straggler.
  const auto& ring = faulted.cluster.engine(0).ring();
  for (ProcessId m : ring.members) EXPECT_NE(m, 3);

  // Post-quarantine agreed throughput >= 80% of the fault-free baseline.
  ASSERT_GT(baseline.window_delivered, 0u);
  const double ratio = static_cast<double>(faulted.window_delivered) /
                       static_cast<double>(baseline.window_delivered);
  EXPECT_GE(ratio, 0.8) << "baseline=" << baseline.window_delivered
                        << " faulted=" << faulted.window_delivered;
}

TEST(QuarantineE2e, HealedMemberIsReadmittedThroughProbation) {
  const util::Nanos kHorizon = util::sec(8);
  E2eRun run(22, kHorizon, 0, 0);
  run.cluster.eq().schedule(util::msec(200), [&run] {
    run.cluster.process(3).set_cpu_multiplier(10.0);
  });
  // Heal well before the horizon: the victim probes its way back.
  run.cluster.eq().schedule(util::msec(1200), [&run] {
    run.cluster.process(3).set_cpu_multiplier(1.0);
  });
  run.cluster.run_until(kHorizon);

  const harness::ClusterStats stats = run.cluster.stats();
  ASSERT_GE(stats.quarantines(), 1u);
  EXPECT_GE(stats.readmits(), 1u);
  // The final ring is whole again.
  const auto& ring = run.cluster.engine(0).ring();
  EXPECT_EQ(ring.members.size(), 5u);
  bool back = false;
  for (ProcessId m : ring.members) back = back || m == 3;
  EXPECT_TRUE(back);
}

TEST(QuarantineE2e, BorderlineLoadNeverFlaps) {
  // 2x CPU is degraded but under the 3x eviction ratio: the detector must
  // hold its fire for the whole run, and membership must not churn.
  const util::Nanos kHorizon = util::sec(3);
  E2eRun run(23, kHorizon, 0, 0);
  run.cluster.eq().schedule(util::msec(200), [&run] {
    run.cluster.process(3).set_cpu_multiplier(2.0);
  });
  run.cluster.run_until(kHorizon);

  const harness::ClusterStats stats = run.cluster.stats();
  EXPECT_EQ(stats.quarantines(), 0u);
  for (int n = 0; n < 5; ++n) {
    EXPECT_TRUE(run.cluster.engine(n).quarantine_victims().empty());
    EXPECT_EQ(run.cluster.engine(n).ring().members.size(), 5u);
  }
}

}  // namespace
}  // namespace accelring
