// The fast fault-injection campaign: every scenario in the catalogue,
// single-ring and K=4 multi-ring, driven across many seeds with the safety
// oracles attached. Also proves the oracles have teeth: hand-crafted bad
// histories trip each check, and a deliberately injected merge-ordering
// mutation is caught and shrunk to a minimal schedule.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/campaign.hpp"
#include "check/oracle.hpp"
#include "check/schedule.hpp"
#include "multiring/migration.hpp"

namespace accelring::check {
namespace {

protocol::Delivery make_delivery(protocol::RingId ring, protocol::SeqNum seq,
                                 protocol::ProcessId sender,
                                 std::byte tag = std::byte{0}) {
  protocol::Delivery d;
  d.ring_id = ring;
  d.seq = seq;
  d.sender = sender;
  d.payload = {tag};
  return d;
}

protocol::ConfigurationChange regular(protocol::RingId ring,
                                      std::vector<protocol::ProcessId> members) {
  protocol::ConfigurationChange c;
  c.config.ring_id = ring;
  c.config.members = std::move(members);
  c.transitional = false;
  return c;
}

protocol::ConfigurationChange transitional(
    protocol::RingId ring, std::vector<protocol::ProcessId> members) {
  protocol::ConfigurationChange c = regular(ring, std::move(members));
  c.transitional = true;
  return c;
}

// ---------------------------------------------------------------------------
// Oracle unit checks on hand-crafted histories: each safety property must
// trip on a history violating exactly it.

TEST(OracleTest, CleanHistoryPasses) {
  ClusterOracle oracle(2);
  for (int n = 0; n < 2; ++n) {
    oracle.on_config(n, regular(100, {0, 1}));
    oracle.on_deliver(n, make_delivery(100, 1, 0));
    oracle.on_deliver(n, make_delivery(100, 2, 1));
    oracle.on_deliver(n, make_delivery(100, 3, 0));
  }
  oracle.finalize();
  EXPECT_TRUE(oracle.ok()) << oracle.report();
  EXPECT_EQ(oracle.observed(), 6u);
}

TEST(OracleTest, GapInAgreedOrderIsCaught) {
  ClusterOracle oracle(1);
  oracle.on_config(0, regular(100, {0}));
  oracle.on_deliver(0, make_delivery(100, 1, 0));
  oracle.on_deliver(0, make_delivery(100, 3, 0));  // seq 2 missing
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("gap in agreed order"), std::string::npos)
      << oracle.report();
}

TEST(OracleTest, SequenceGoingBackwardsIsCaught) {
  ClusterOracle oracle(1);
  oracle.on_config(0, regular(100, {0}));
  oracle.on_deliver(0, make_delivery(100, 2, 0));
  oracle.on_deliver(0, make_delivery(100, 1, 0));
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("went backwards"), std::string::npos);
}

TEST(OracleTest, DuplicateDeliveryIsCaught) {
  ClusterOracle oracle(1);
  oracle.on_config(0, regular(100, {0}));
  oracle.on_deliver(0, make_delivery(100, 1, 0));
  oracle.on_deliver(0, make_delivery(100, 1, 0));  // same message again
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("duplicate delivery"), std::string::npos);
}

TEST(OracleTest, PackedMessagesMayShareSeq) {
  ClusterOracle oracle(1);
  oracle.on_config(0, regular(100, {0}));
  oracle.on_deliver(0, make_delivery(100, 1, 0, std::byte{1}));
  oracle.on_deliver(0, make_delivery(100, 1, 0, std::byte{2}));  // packed
  oracle.finalize();
  EXPECT_TRUE(oracle.ok()) << oracle.report();
}

TEST(OracleTest, CrossNodeOrderDisagreementIsCaught) {
  ClusterOracle oracle(2);
  for (int n = 0; n < 2; ++n) oracle.on_config(n, regular(100, {0, 1}));
  oracle.on_deliver(0, make_delivery(100, 1, 0));
  oracle.on_deliver(0, make_delivery(100, 2, 1));
  // Node 1 sees different content at the same positions.
  oracle.on_deliver(1, make_delivery(100, 1, 1));
  oracle.on_deliver(1, make_delivery(100, 2, 0));
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("different messages"), std::string::npos)
      << oracle.report();
}

TEST(OracleTest, DeliveryOutsideConfigurationIsCaught) {
  ClusterOracle oracle(1);
  oracle.on_config(0, regular(100, {0}));
  oracle.on_deliver(0, make_delivery(999, 1, 0));  // ring never installed
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("under configuration"), std::string::npos);
}

TEST(OracleTest, TransitionalNotSubsetOfOldRegularIsCaught) {
  ClusterOracle oracle(3);
  oracle.on_config(2, regular(100, {1, 2}));
  // Node 0 was never in ring 100, so it cannot survive out of it.
  oracle.on_config(2, transitional(200, {0, 2}));
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("not a subset"), std::string::npos);
}

TEST(OracleTest, TransitionalGroupsMustDeliverSameMessages) {
  ClusterOracle oracle(2);
  for (int n = 0; n < 2; ++n) {
    oracle.on_config(n, regular(100, {0, 1}));
    oracle.on_deliver(n, make_delivery(100, 1, 0));
    oracle.on_config(n, transitional(200, {0, 1}));
  }
  oracle.on_deliver(0, make_delivery(100, 3, 1));  // only node 0 gets seq 3
  oracle.on_config(0, regular(200, {0, 1}));
  oracle.on_config(1, regular(200, {0, 1}));
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("transitional configuration"),
            std::string::npos)
      << oracle.report();
}

TEST(OracleTest, RegularMembershipDisagreementIsCaught) {
  ClusterOracle oracle(2);
  oracle.on_config(0, regular(100, {0, 1}));
  oracle.on_config(1, regular(100, {1}));  // same ring id, different members
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("different members"), std::string::npos);
}

TEST(OracleTest, SelfDeliveryIsRequiredUnlessCrashed) {
  ClusterOracle oracle(1);
  oracle.on_config(0, regular(100, {0}));
  oracle.note_submit(0, 7);  // payload never comes back
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("its own"), std::string::npos);

  ClusterOracle waived(1);
  waived.on_config(0, regular(100, {0}));
  waived.note_submit(0, 7);
  waived.note_crash(0);
  waived.finalize();
  EXPECT_TRUE(waived.ok()) << waived.report();
}

TEST(OracleTest, MergedStreamDivergenceIsCaught) {
  MergedOracle oracle(2);
  oracle.on_merged(0, 0, make_delivery(100, 1, 0));
  oracle.on_merged(0, 1, make_delivery(101, 1, 0));
  oracle.on_merged(1, 1, make_delivery(101, 1, 0));  // rings swapped
  oracle.on_merged(1, 0, make_delivery(100, 1, 0));
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("diverge"), std::string::npos);
}

TEST(OracleTest, MergedPrefixPasses) {
  MergedOracle oracle(2);
  oracle.on_merged(0, 0, make_delivery(100, 1, 0));
  oracle.on_merged(0, 1, make_delivery(101, 1, 0));
  oracle.on_merged(1, 0, make_delivery(100, 1, 0));  // node 1 lags behind
  oracle.finalize();
  EXPECT_TRUE(oracle.ok()) << oracle.report();
}

// ---------------------------------------------------------------------------
// MergedOracle handoff audit on hand-crafted streams: the clean three-marker
// handoff passes, and each ownership/continuity property trips on a stream
// violating exactly it.

/// Keyed workload payload the audit KeyFn below understands: all deliveries
/// carry one fixed routing key (150, inside the move range used by
/// audit_marker), so ownership is decided purely by marker position.
protocol::Delivery audit_data(protocol::RingId ring, protocol::SeqNum seq,
                              uint32_t submitter, uint32_t index) {
  protocol::Delivery d;
  d.ring_id = ring;
  d.seq = seq;
  d.sender = static_cast<protocol::ProcessId>(submitter);
  d.payload = {std::byte{0x7E}, std::byte{static_cast<uint8_t>(submitter)},
               std::byte{static_cast<uint8_t>(index)}};
  return d;
}

MergedOracle::KeyFn audit_key_fn() {
  return [](const protocol::Delivery& d)
             -> std::optional<MergedOracle::KeyedPayload> {
    if (d.payload.size() != 3 || d.payload[0] != std::byte{0x7E}) {
      return std::nullopt;
    }
    MergedOracle::KeyedPayload kp;
    kp.key = 150;  // inside audit_marker's move range [100, 200]
    kp.submitter = std::to_integer<uint32_t>(d.payload[1]);
    kp.index = std::to_integer<uint32_t>(d.payload[2]);
    return kp;
  };
}

/// A handoff marker for plan version 1 moving range [100, 200] from ring 0
/// to ring 1 (the freeze carries the move list, like the real protocol).
protocol::Delivery audit_marker(multiring::MarkerKind kind, int ring,
                                protocol::SeqNum seq) {
  multiring::MigrationMarker m;
  m.kind = kind;
  m.version = 1;
  m.ring = ring;
  if (kind == multiring::MarkerKind::kFreeze) {
    m.moves = {multiring::MigrationMove{{100, 200}, 0, 1}};
  }
  protocol::Delivery d;
  d.ring_id = static_cast<protocol::RingId>(100 + ring);
  d.seq = seq;
  d.sender = 0;
  d.payload = multiring::make_marker(m);
  return d;
}

TEST(OracleTest, HandoffAuditCleanHandoffPasses) {
  MergedOracle oracle(1);
  oracle.enable_handoff_audit(audit_key_fn());
  oracle.on_merged(0, 0, audit_data(100, 1, 3, 0));
  oracle.on_merged(0, 0, audit_marker(multiring::MarkerKind::kFreeze, 0, 2));
  oracle.on_merged(0, 0, audit_marker(multiring::MarkerKind::kDrain, 0, 3));
  oracle.on_merged(0, 1, audit_marker(multiring::MarkerKind::kActivate, 1, 1));
  oracle.on_merged(0, 1, audit_data(101, 2, 3, 1));
  oracle.finalize();
  EXPECT_TRUE(oracle.ok()) << oracle.report();
}

TEST(OracleTest, HandoffAuditCatchesStaleOwnerDelivery) {
  // The off-by-one handoff bug: the source ring delivers a moving key after
  // the destination activated (a message routed with a stale map epoch).
  MergedOracle oracle(1);
  oracle.enable_handoff_audit(audit_key_fn());
  oracle.on_merged(0, 0, audit_marker(multiring::MarkerKind::kFreeze, 0, 1));
  oracle.on_merged(0, 0, audit_marker(multiring::MarkerKind::kDrain, 0, 2));
  oracle.on_merged(0, 1, audit_marker(multiring::MarkerKind::kActivate, 1, 1));
  oracle.on_merged(0, 0, audit_data(100, 3, 3, 0));  // ring 0 no longer owns
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("stale-owner delivery"), std::string::npos)
      << oracle.report();
}

TEST(OracleTest, HandoffAuditCatchesHoldWindowDelivery) {
  // Between the source's drain and the destination's activate *nobody* owns
  // the moving range; a delivery there breaks the exclusive handoff.
  MergedOracle oracle(1);
  oracle.enable_handoff_audit(audit_key_fn());
  oracle.on_merged(0, 0, audit_marker(multiring::MarkerKind::kFreeze, 0, 1));
  oracle.on_merged(0, 0, audit_marker(multiring::MarkerKind::kDrain, 0, 2));
  oracle.on_merged(0, 0, audit_data(100, 3, 3, 0));
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("hold window"), std::string::npos)
      << oracle.report();
}

TEST(OracleTest, HandoffAuditCatchesDuplicatedStamp) {
  // A message flushed to both sides of the handoff: same (key, submitter,
  // index) delivered twice — FIFO continuity broken.
  MergedOracle oracle(1);
  oracle.enable_handoff_audit(audit_key_fn());
  oracle.on_merged(0, 0, audit_data(100, 1, 3, 0));
  oracle.on_merged(0, 0, audit_marker(multiring::MarkerKind::kFreeze, 0, 2));
  oracle.on_merged(0, 0, audit_marker(multiring::MarkerKind::kDrain, 0, 3));
  oracle.on_merged(0, 1, audit_marker(multiring::MarkerKind::kActivate, 1, 1));
  oracle.on_merged(0, 1, audit_data(101, 2, 3, 0));  // index 0 again
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("duplicated or reordered"), std::string::npos)
      << oracle.report();
}

TEST(OracleTest, HandoffAuditCatchesDrainBeforeFreeze) {
  MergedOracle oracle(1);
  oracle.enable_handoff_audit(audit_key_fn());
  oracle.on_merged(0, 0, audit_marker(multiring::MarkerKind::kDrain, 0, 1));
  oracle.on_merged(0, 0, audit_marker(multiring::MarkerKind::kFreeze, 0, 2));
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("drain marker before its freeze"),
            std::string::npos)
      << oracle.report();
}

// ---------------------------------------------------------------------------
// Schedule DSL.

RunOptions fast_run_options() {
  RunOptions run;
  run.nodes = 5;
  run.horizon = util::msec(250);
  run.drain = util::msec(300);
  return run;
}

TEST(ScheduleTest, GeneratorsAreDeterministic) {
  for (const Scenario& sc : scenarios()) {
    const Schedule a = sc.make(42, 5, util::msec(250));
    const Schedule b = sc.make(42, 5, util::msec(250));
    ASSERT_EQ(a.events.size(), b.events.size()) << sc.name;
    EXPECT_EQ(describe(a), describe(b)) << sc.name;
    EXPECT_FALSE(a.events.empty()) << sc.name;
    for (const FaultEvent& e : a.events) {
      EXPECT_GE(e.at, 0) << sc.name;
      EXPECT_LE(e.at, util::msec(250)) << sc.name;
    }
  }
}

// Every fault a catalogue generator emits must be one its stack acts on at
// each ring count the scenario runs at: run_schedule skips any other event,
// and a catalogue scenario must not depend on that.
TEST(ScheduleTest, ScenariosEmitOnlyFaultsTheirStackApplies) {
  for (const Scenario& sc : scenarios()) {
    for (const int rings : {1, 4}) {
      if (!sc.runs_at(rings)) continue;
      RunOptions run = fast_run_options();
      run.rings = rings;
      for (uint64_t seed = 1; seed <= 20; ++seed) {
        for (const FaultEvent& e : campaign_schedule(sc, seed, run).events) {
          EXPECT_TRUE(stack_applies(sc.stack, rings, e.kind))
              << sc.name << " rings=" << rings << " seed=" << seed << ": "
              << describe(e);
        }
      }
    }
  }
}

TEST(ScheduleTest, ShrinkCandidatesDropOneEventEach) {
  const Schedule s = find_scenario("mixed")->make(7, 5, util::msec(250));
  const auto cands = shrink_candidates(s);
  ASSERT_EQ(cands.size(), s.events.size());
  for (const Schedule& c : cands) {
    EXPECT_EQ(c.events.size(), s.events.size() - 1);
  }
}

// ---------------------------------------------------------------------------
// The fast campaign itself: all scenarios, 20 seeds each, single-ring and
// K=4 multi-ring, zero violations expected.

TEST(CampaignTest, SingleRingAllScenariosClean) {
  CampaignOptions opt;
  opt.run = fast_run_options();
  opt.seeds_per_scenario = 20;
  const CampaignResult result = run_campaign(opt);
  EXPECT_EQ(result.failures, 0);
  // Keyed (live-migration) scenarios need K > 1 rings.
  int single_ring_scenarios = 0;
  for (const Scenario& sc : scenarios()) {
    if (sc.runs_at(1)) ++single_ring_scenarios;
  }
  EXPECT_EQ(result.runs, single_ring_scenarios * opt.seeds_per_scenario);
  EXPECT_GT(result.delivered, 0u);
  for (const FailureCase& fc : result.cases) {
    ADD_FAILURE() << fc.scenario << " seed=" << fc.seed << "\n"
                  << describe(fc.schedule) << "\n"
                  << fc.report;
  }
}

TEST(CampaignTest, MultiRingScenariosClean) {
  CampaignOptions opt;
  opt.run = fast_run_options();
  opt.run.rings = 4;
  opt.seeds_per_scenario = 20;
  const CampaignResult result = run_campaign(opt);
  EXPECT_EQ(result.failures, 0);
  int multiring_scenarios = 0;
  for (const Scenario& sc : scenarios()) {
    if (sc.runs_at(4)) ++multiring_scenarios;
  }
  EXPECT_EQ(result.runs, multiring_scenarios * opt.seeds_per_scenario);
  EXPECT_GT(result.delivered, 0u);
  for (const FailureCase& fc : result.cases) {
    ADD_FAILURE() << fc.scenario << " seed=" << fc.seed << "\n"
                  << describe(fc.schedule) << "\n"
                  << fc.report;
  }
}

// Run fingerprints: every scenario at single-ring seeds 1 and 2 and K=4
// seed 1 (the run set of the sim_campaign benchmark). A change to the
// campaign plumbing must reproduce them exactly: one that moves them
// changes what the campaign runs, and the corpus seeds may stop replaying
// what they found. The event count catches an extra, missing or retimed
// simulator event that leaves the oracle verdict alone.
struct Fingerprint {
  const char* scenario;
  int rings;
  uint64_t seed;
  bool ok;
  uint64_t delivered, client_delivered, events, quarantines, readmits,
      false_ejections;
};

TEST(CampaignTest, RunsAreSeedIdentical) {
  // {scenario, rings, seed, ok, delivered, client_delivered, events,
  //  quarantines, readmits, false_ejections}
  const std::vector<Fingerprint> expected = {
      {"loss_bursts", 1, 1, true, 3125, 0, 24678, 0, 0, 0},
      {"token_drops", 1, 1, true, 3125, 0, 26199, 0, 0, 0},
      {"partition", 1, 1, true, 2963, 0, 23529, 0, 0, 0},
      {"partition_delayed_heal", 1, 1, true, 2833, 0, 25724, 0, 0, 0},
      {"crash", 1, 1, true, 2758, 0, 24207, 0, 0, 0},
      {"crash_restart", 1, 1, true, 3064, 0, 25822, 0, 0, 0},
      {"mixed", 1, 1, true, 2632, 0, 22075, 0, 0, 0},
      {"latency_shift", 1, 1, true, 3125, 0, 23965, 0, 0, 3},
      {"overload", 1, 1, true, 7980, 15860, 41545, 0, 0, 0},
      {"reconnect_storm", 1, 1, true, 5443, 10419, 32386, 0, 0, 0},
      {"straggler_cpu", 1, 1, true, 2845, 0, 28282, 2, 2, 0},
      {"lossy_nic", 1, 1, true, 3125, 0, 19026, 0, 0, 0},
      {"flapping_link", 1, 1, true, 3125, 0, 26969, 0, 0, 0},
      {"reorder_duplicate", 1, 1, true, 3125, 0, 26753, 0, 0, 0},
      {"kv_state_transfer_crash", 1, 1, true, 8863, 1604, 53241, 0, 0, 0},
      {"kv_lease_holder_crash", 1, 1, true, 8010, 1681, 50855, 0, 0, 0},
      {"wan_loss_bursts", 1, 1, true, 3125, 0, 13811, 0, 0, 0},
      {"wan_latency_surge", 1, 1, true, 3125, 0, 13597, 0, 0, 0},
      {"rack_power", 1, 1, true, 2444, 0, 13295, 0, 0, 0},
      {"switch_brownout", 1, 1, true, 3125, 0, 13836, 0, 0, 0},
      {"dc_flap", 1, 1, true, 3125, 0, 13929, 0, 0, 0},
      {"kv_wan_rack_power", 1, 1, true, 5720, 1210, 27467, 0, 0, 0},
      {"kv_blackout", 1, 1, true, 6755, 1509, 44249, 0, 0, 0},
      {"kv_blackout_torn", 1, 1, true, 7660, 1663, 48841, 0, 0, 0},
      {"kv_disk_bitrot", 1, 1, true, 8010, 1818, 51290, 0, 0, 0},
      {"kv_disk_stress", 1, 1, true, 9116, 1743, 55157, 0, 0, 0},
      {"loss_bursts", 1, 2, true, 3125, 0, 25077, 0, 0, 0},
      {"token_drops", 1, 2, true, 3125, 0, 25380, 0, 0, 0},
      {"partition", 1, 2, true, 2837, 0, 25731, 0, 0, 0},
      {"partition_delayed_heal", 1, 2, true, 2693, 0, 25427, 0, 0, 0},
      {"crash", 1, 2, true, 2675, 0, 23809, 0, 0, 0},
      {"crash_restart", 1, 2, true, 3060, 0, 25774, 0, 0, 0},
      {"mixed", 1, 2, true, 2649, 0, 22469, 0, 0, 0},
      {"latency_shift", 1, 2, true, 3125, 0, 24095, 0, 0, 0},
      {"overload", 1, 2, true, 7045, 13990, 38872, 0, 0, 0},
      {"reconnect_storm", 1, 2, true, 5624, 10925, 33735, 0, 0, 0},
      {"straggler_cpu", 1, 2, true, 2900, 0, 27019, 1, 1, 0},
      {"lossy_nic", 1, 2, true, 2991, 0, 24109, 1, 1, 0},
      {"flapping_link", 1, 2, true, 3125, 0, 26889, 0, 0, 0},
      {"reorder_duplicate", 1, 2, true, 3125, 0, 26815, 0, 0, 0},
      {"kv_state_transfer_crash", 1, 2, true, 6971, 1499, 44854, 0, 0, 0},
      {"kv_lease_holder_crash", 1, 2, true, 8998, 1727, 53621, 0, 0, 0},
      {"wan_loss_bursts", 1, 2, true, 3125, 0, 14289, 0, 0, 0},
      {"wan_latency_surge", 1, 2, true, 3125, 0, 13571, 0, 0, 0},
      {"rack_power", 1, 2, true, 2521, 0, 14399, 0, 0, 0},
      {"switch_brownout", 1, 2, true, 3125, 0, 13761, 0, 0, 0},
      {"dc_flap", 1, 2, true, 3125, 0, 13835, 0, 0, 0},
      {"kv_wan_rack_power", 1, 2, true, 6410, 1180, 29870, 0, 0, 0},
      {"kv_blackout", 1, 2, true, 6855, 1483, 44817, 0, 0, 0},
      {"kv_blackout_torn", 1, 2, true, 7225, 1504, 46246, 0, 0, 0},
      {"kv_disk_bitrot", 1, 2, true, 8778, 1713, 53896, 0, 0, 0},
      {"kv_disk_stress", 1, 2, true, 10008, 1795, 57905, 0, 0, 0},
      {"loss_bursts", 4, 1, true, 36213, 0, 204929, 0, 0, 0},
      {"token_drops", 4, 1, true, 37021, 0, 211961, 0, 0, 0},
      {"crash", 4, 1, true, 33251, 0, 207112, 0, 0, 0},
      {"latency_shift", 4, 1, true, 37244, 0, 203182, 0, 0, 0},
      {"reorder_duplicate", 4, 1, true, 36875, 0, 213018, 0, 0, 0},
      {"wan_loss_bursts", 4, 1, true, 31700, 0, 136052, 0, 0, 0},
      {"wan_latency_surge", 4, 1, true, 30380, 0, 130292, 0, 0, 0},
      {"ring_add_under_load", 4, 1, true, 36766, 0, 211913, 0, 0, 0},
      {"ring_remove_under_load", 4, 1, true, 36800, 0, 208533, 0, 0, 0},
      {"migration_during_partition_heal", 4, 1, true, 35465, 0, 208492, 0, 0, 0},
      {"hot_shard_zipf_rebalance", 4, 1, true, 36830, 0, 212360, 0, 0, 0},
  };
  size_t runs = 0;
  for (const Scenario& sc : scenarios()) {
    for (const int rings : {1, 4}) {
      if (sc.runs_at(rings)) runs += rings == 1 ? 2 : 1;
    }
  }
  EXPECT_EQ(runs, expected.size());
  for (const Fingerprint& want : expected) {
    SCOPED_TRACE(std::string(want.scenario) + " rings=" +
                 std::to_string(want.rings) + " seed=" +
                 std::to_string(want.seed));
    const Scenario* sc = find_scenario(want.scenario);
    ASSERT_NE(sc, nullptr);
    RunOptions run = fast_run_options();
    run.rings = want.rings;
    const RunResult got =
        run_schedule(run, campaign_schedule(*sc, want.seed, run), want.seed);
    EXPECT_EQ(got.ok, want.ok) << got.report;
    EXPECT_EQ(got.delivered, want.delivered);
    EXPECT_EQ(got.client_delivered, want.client_delivered);
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.quarantines, want.quarantines);
    EXPECT_EQ(got.readmits, want.readmits);
    EXPECT_EQ(got.false_ejections, want.false_ejections);
  }
}

// Every seed in tests/seeds/ once exposed a real bug. Each corpus replays
// against its scenarios at its ring counts (no sweep seeds on top):
// regression.seeds against the whole catalogue; wan.seeds against the
// multi-datacenter scenarios (token rotation over 3 ms links, correlated
// rack/switch/link faults); storage.seeds against the durable-KV ones
// (per-node SimDisk faults under the DurabilityOracle); migration.seeds
// against the live-migration ones (handoff audit, held-message liveness).
// The narrow corpora stay separate so their replay time does not grow the
// others.
TEST(CampaignTest, SeedCorporaClean) {
#ifndef ACCELRING_SEED_DIR
  GTEST_SKIP() << "corpus directory not configured";
#else
  struct Corpus {
    const char* file;
    bool (*wanted)(const Scenario&);
    std::vector<int> rings;
  };
  const std::vector<Corpus> corpora = {
      {"regression.seeds", [](const Scenario&) { return true; }, {1, 4}},
      {"wan.seeds", [](const Scenario& sc) { return sc.wan; }, {1, 4}},
      {"storage.seeds",
       [](const Scenario& sc) { return sc.stack == Stack::kDurableKv; },
       {1}},
      {"migration.seeds", [](const Scenario& sc) { return sc.keyed(); }, {4}},
  };
  for (const Corpus& corpus : corpora) {
    const std::string path = std::string(ACCELRING_SEED_DIR) + "/" + corpus.file;
    CampaignOptions opt;
    opt.run = fast_run_options();
    opt.seeds_per_scenario = 0;
    opt.extra_seeds = load_seed_corpus(path);
    ASSERT_FALSE(opt.extra_seeds.empty()) << path;
    for (const Scenario& sc : scenarios()) {
      if (corpus.wanted(sc)) opt.only.push_back(sc.name);
    }
    for (const int rings : corpus.rings) {
      opt.run.rings = rings;
      int scenarios_run = 0;
      for (const Scenario& sc : scenarios()) {
        if (corpus.wanted(sc) && sc.runs_at(rings)) ++scenarios_run;
      }
      ASSERT_GT(scenarios_run, 0) << corpus.file << " rings=" << rings;
      const CampaignResult result = run_campaign(opt);
      EXPECT_EQ(result.failures, 0) << corpus.file << " rings=" << rings;
      EXPECT_EQ(result.runs, scenarios_run *
                                 static_cast<int>(opt.extra_seeds.size()));
      for (const FailureCase& fc : result.cases) {
        ADD_FAILURE() << corpus.file << ": " << fc.scenario
                      << " seed=" << fc.seed << " rings=" << rings << "\n"
                      << describe(fc.schedule) << "\n" << fc.report;
      }
    }
  }
#endif
}

// ---------------------------------------------------------------------------
// Mutation: an injected merge-ordering bug must be caught by the oracles and
// shrunk to a minimal (<= 5 event) reproducer.

TEST(CampaignTest, InjectedMergeBugIsCaughtAndShrunk) {
  RunOptions run = fast_run_options();
  run.rings = 4;
  run.inject_merge_bug = true;

  const Schedule schedule =
      find_scenario("loss_bursts")->make(11, run.nodes, run.horizon);
  const RunResult bad = run_schedule(run, schedule, 11);
  ASSERT_FALSE(bad.ok) << "mutation not caught by the oracles";
  EXPECT_NE(bad.report.find("diverge"), std::string::npos) << bad.report;

  const Schedule minimal = shrink(run, schedule, 11);
  EXPECT_LE(minimal.events.size(), 5u);
  // The bug is in the merge path, not the schedule: greedy removal should
  // strip every fault event.
  EXPECT_EQ(minimal.events.size(), 0u) << describe(minimal);
  const RunResult still_bad = run_schedule(run, minimal, 11);
  EXPECT_FALSE(still_bad.ok);

  // Same seed and schedule without the mutation: clean.
  run.inject_merge_bug = false;
  const RunResult good = run_schedule(run, schedule, 11);
  EXPECT_TRUE(good.ok) << good.report;
}

// The handoff mutation: node 1 flushes one held moving-key message to the
// *source* ring after the destination activated — the classic stale-map-epoch
// off-by-one in a live migration. The MergedOracle handoff audit must catch
// it, and greedy shrink must converge to a minimal schedule that still
// migrates (drop the migrate event and nothing is ever held, so the mutated
// run is clean).
TEST(CampaignTest, InjectedHandoffBugIsCaughtAndShrunk) {
  RunOptions run = fast_run_options();
  run.rings = 4;
  run.inject_handoff_bug = true;

  const uint64_t seed = 3;
  const Schedule schedule =
      find_scenario("ring_add_under_load")->make(seed, run.nodes, run.horizon);
  const RunResult bad = run_schedule(run, schedule, seed);
  ASSERT_FALSE(bad.ok) << "handoff mutation not caught by the oracles";
  EXPECT_NE(bad.report.find("stale-owner delivery"), std::string::npos)
      << bad.report;

  const Schedule minimal = shrink(run, schedule, seed);
  // The reproducer must keep the events the bug needs — the idle ring and
  // the migration onto it — and shed any incidental loss bursts.
  EXPECT_LE(minimal.events.size(), 2u) << describe(minimal);
  bool has_migrate = false;
  for (const FaultEvent& e : minimal.events) {
    has_migrate = has_migrate || e.kind == FaultKind::kMigrate;
  }
  EXPECT_TRUE(has_migrate) << describe(minimal);
  const RunResult still_bad = run_schedule(run, minimal, seed);
  EXPECT_FALSE(still_bad.ok);

  // Same seed and schedule without the mutation: clean.
  run.inject_handoff_bug = false;
  const RunResult good = run_schedule(run, schedule, seed);
  EXPECT_TRUE(good.ok) << good.report;
}

}  // namespace
}  // namespace accelring::check
