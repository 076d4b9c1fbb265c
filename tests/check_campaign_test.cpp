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

namespace accelring::check {
namespace {

protocol::Delivery make_delivery(protocol::RingId ring, protocol::SeqNum seq,
                                 protocol::ProcessId sender,
                                 std::byte tag = std::byte{0},
                                 uint32_t part = 0) {
  protocol::Delivery d;
  d.ring_id = ring;
  d.seq = seq;
  d.part = part;
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
  oracle.on_deliver(0, make_delivery(100, 1, 0, std::byte{1}, 0));
  oracle.on_deliver(0, make_delivery(100, 1, 0, std::byte{2}, 1));  // packed
  oracle.on_deliver(0, make_delivery(100, 2, 0, std::byte{3}, 0));
  oracle.finalize();
  EXPECT_TRUE(oracle.ok()) << oracle.report();
}

// A client retry resubmits identical bytes; packing can put both copies
// under one seq. They are two messages (two parts), not a duplicate.
TEST(OracleTest, PackedIdenticalRetryPasses) {
  ClusterOracle oracle(2);
  for (int n = 0; n < 2; ++n) {
    oracle.on_config(n, regular(100, {0, 1}));
    oracle.on_deliver(n, make_delivery(100, 1, 0, std::byte{7}, 0));
    oracle.on_deliver(n, make_delivery(100, 1, 0, std::byte{7}, 1));
    oracle.on_deliver(n, make_delivery(100, 2, 1, std::byte{7}, 0));
  }
  oracle.finalize();
  EXPECT_TRUE(oracle.ok()) << oracle.report();
}

// A packed [A, B] delivered twice reads A B A B: no two adjacent
// deliveries are equal, but (seq, part) steps back.
TEST(OracleTest, PackedRedeliveryIsCaught) {
  ClusterOracle oracle(1);
  oracle.on_config(0, regular(100, {0}));
  for (int copy = 0; copy < 2; ++copy) {
    oracle.on_deliver(0, make_delivery(100, 1, 0, std::byte{1}, 0));
    oracle.on_deliver(0, make_delivery(100, 1, 0, std::byte{2}, 1));
  }
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("duplicate delivery"), std::string::npos)
      << oracle.report();
}

TEST(OracleTest, SkippedPackedPartIsCaught) {
  ClusterOracle oracle(1);
  oracle.on_config(0, regular(100, {0}));
  oracle.on_deliver(0, make_delivery(100, 1, 0, std::byte{1}, 0));
  oracle.on_deliver(0, make_delivery(100, 1, 0, std::byte{3}, 2));  // no part 1
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("gap in agreed order"), std::string::npos)
      << oracle.report();
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
  // Last re-pinned when the token-loss timeout began to follow the measured
  // rotation on every ring (it had been static outside the WAN scenarios),
  // and false ejections began to count on every ring of a set. Every
  // LAN-configured run moved: data traffic now defers the token-loss
  // timer, which moves event counts, and faster loss detection moves the
  // partition and crash runs' deliveries. The WAN runs, which already ran
  // the detector, did not move. The four false ejections (latency_shift
  // seed 1: 3, lossy_nic seed 2: 1) are gone.
  const std::vector<Fingerprint> expected = {
      {"loss_bursts", 1, 1, true, 3125, 0, 47753, 0, 0, 0},
      {"token_drops", 1, 1, true, 3125, 0, 54247, 0, 0, 0},
      {"partition", 1, 1, true, 3125, 0, 49084, 0, 0, 0},
      {"partition_delayed_heal", 1, 1, true, 2830, 0, 45266, 0, 0, 0},
      {"crash", 1, 1, true, 2758, 0, 43942, 0, 0, 0},
      {"crash_restart", 1, 1, true, 3066, 0, 52408, 0, 0, 0},
      {"mixed", 1, 1, true, 2831, 0, 43521, 0, 0, 0},
      {"latency_shift", 1, 1, true, 3125, 0, 43721, 0, 0, 0},
      {"overload", 1, 1, true, 7980, 15860, 68909, 0, 0, 0},
      {"reconnect_storm", 1, 1, true, 5819, 10488, 46697, 0, 0, 0},
      {"straggler_cpu", 1, 1, true, 2835, 0, 51566, 2, 2, 0},
      {"lossy_nic", 1, 1, true, 3125, 0, 23103, 0, 0, 0},
      {"flapping_link", 1, 1, true, 3125, 0, 55769, 0, 0, 0},
      {"reorder_duplicate", 1, 1, true, 3125, 0, 55792, 0, 0, 0},
      {"kv_state_transfer_crash", 1, 1, true, 8239, 1555, 70167, 0, 0, 0},
      {"kv_lease_holder_crash", 1, 1, true, 7778, 1658, 74513, 0, 0, 0},
      {"wan_loss_bursts", 1, 1, true, 3125, 0, 9237, 0, 0, 0},
      {"wan_latency_surge", 1, 1, true, 3125, 0, 8947, 0, 0, 0},
      {"rack_power", 1, 1, true, 2642, 0, 9210, 0, 0, 0},
      {"switch_brownout", 1, 1, true, 3125, 0, 9355, 0, 0, 0},
      {"dc_flap", 1, 1, true, 3125, 0, 9207, 0, 0, 0},
      {"kv_wan_rack_power", 1, 1, true, 6963, 1260, 12157, 0, 0, 0},
      {"kv_blackout", 1, 1, true, 6880, 1539, 71891, 0, 0, 0},
      {"kv_blackout_torn", 1, 1, true, 7685, 1680, 78002, 0, 0, 0},
      {"kv_disk_bitrot", 1, 1, true, 8120, 1818, 81668, 0, 0, 0},
      {"kv_disk_stress", 1, 1, true, 7805, 1730, 76646, 0, 0, 0},
      {"loss_bursts", 1, 2, true, 3125, 0, 49263, 0, 0, 0},
      {"token_drops", 1, 2, true, 3125, 0, 51035, 0, 0, 0},
      {"partition", 1, 2, true, 2989, 0, 45475, 0, 0, 0},
      {"partition_delayed_heal", 1, 2, true, 2705, 0, 44904, 0, 0, 0},
      {"crash", 1, 2, true, 2677, 0, 42916, 0, 0, 0},
      {"crash_restart", 1, 2, true, 3060, 0, 52064, 0, 0, 0},
      {"mixed", 1, 2, true, 2649, 0, 37576, 0, 0, 0},
      {"latency_shift", 1, 2, true, 3125, 0, 46829, 0, 0, 0},
      {"overload", 1, 2, true, 7045, 13990, 68733, 0, 0, 0},
      {"reconnect_storm", 1, 2, true, 5810, 10926, 56501, 0, 0, 0},
      {"straggler_cpu", 1, 2, true, 2889, 0, 51603, 1, 1, 0},
      {"lossy_nic", 1, 2, true, 3100, 0, 31259, 1, 1, 0},
      {"flapping_link", 1, 2, true, 3125, 0, 55780, 0, 0, 0},
      {"reorder_duplicate", 1, 2, true, 3125, 0, 55550, 0, 0, 0},
      {"kv_state_transfer_crash", 1, 2, true, 7114, 1427, 61714, 0, 0, 0},
      {"kv_lease_holder_crash", 1, 2, true, 8904, 1643, 76343, 0, 0, 0},
      {"wan_loss_bursts", 1, 2, true, 3125, 0, 9239, 0, 0, 0},
      {"wan_latency_surge", 1, 2, true, 3125, 0, 8853, 0, 0, 0},
      {"rack_power", 1, 2, true, 2583, 0, 9142, 0, 0, 0},
      {"switch_brownout", 1, 2, true, 3125, 0, 9197, 0, 0, 0},
      {"dc_flap", 1, 2, true, 3125, 0, 9097, 0, 0, 0},
      {"kv_wan_rack_power", 1, 2, true, 6821, 1321, 12912, 0, 0, 0},
      {"kv_blackout", 1, 2, true, 6770, 1472, 70565, 0, 0, 0},
      {"kv_blackout_torn", 1, 2, true, 7336, 1510, 73067, 0, 0, 0},
      {"kv_disk_bitrot", 1, 2, true, 8725, 1694, 76888, 0, 0, 0},
      {"kv_disk_stress", 1, 2, true, 9170, 1784, 81421, 0, 0, 0},
      {"loss_bursts", 4, 1, true, 37820, 0, 187147, 0, 0, 0},
      {"token_drops", 4, 1, true, 37815, 0, 204055, 0, 0, 0},
      {"partition", 4, 1, true, 37825, 0, 189855, 0, 0, 0},
      {"partition_delayed_heal", 4, 1, true, 36606, 0, 181925, 0, 0, 0},
      {"crash", 4, 1, true, 33860, 0, 193307, 0, 0, 0},
      {"latency_shift", 4, 1, true, 37905, 0, 177533, 0, 0, 0},
      {"reorder_duplicate", 4, 1, true, 37735, 0, 206353, 0, 0, 0},
      {"wan_loss_bursts", 4, 1, true, 48070, 0, 42008, 0, 0, 0},
      {"wan_latency_surge", 4, 1, true, 48118, 0, 40725, 0, 0, 0},
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
// (per-node SimDisk faults under the DurabilityOracle).
// The narrow corpora stay separate so their replay time does not grow the
// others. Most seeds were found one message per packet, before packing was
// the default, so every corpus replays both packed and unpacked.
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
    for (const bool packing : {true, false}) {
      opt.run.proto.enable_packing = packing;
      const std::string label = std::string(corpus.file) +
                                (packing ? " packed" : " unpacked");
      for (const int rings : corpus.rings) {
        opt.run.rings = rings;
        int scenarios_run = 0;
        for (const Scenario& sc : scenarios()) {
          if (corpus.wanted(sc) && sc.runs_at(rings)) ++scenarios_run;
        }
        ASSERT_GT(scenarios_run, 0) << label << " rings=" << rings;
        const CampaignResult result = run_campaign(opt);
        EXPECT_EQ(result.failures, 0) << label << " rings=" << rings;
        EXPECT_EQ(result.runs, scenarios_run *
                                   static_cast<int>(opt.extra_seeds.size()));
        for (const FailureCase& fc : result.cases) {
          ADD_FAILURE() << label << ": " << fc.scenario << " seed=" << fc.seed
                        << " rings=" << rings << "\n"
                        << describe(fc.schedule) << "\n" << fc.report;
        }
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

}  // namespace
}  // namespace accelring::check
