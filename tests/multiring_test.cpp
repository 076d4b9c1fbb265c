// Multi-ring subsystem tests: shard-map invariants, the deterministic merge
// rule (round-robin with skip credits), run-to-run and node-to-node
// determinism of the merged order under loss, merge liveness with an idle
// ring, group routing across shards, and RSM convergence atop K rings.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "groups/group_layer.hpp"
#include "multiring/measure.hpp"
#include "multiring/merger.hpp"
#include "multiring/ring_set.hpp"
#include "multiring/shard_map.hpp"
#include "rsm/replica.hpp"
#include "util/bytes.hpp"

namespace accelring::multiring {
namespace {

using protocol::Delivery;
using protocol::Service;

// --- ShardMap ---------------------------------------------------------------

TEST(ShardMap, RangesTileTheHashSpace) {
  for (int k : {1, 2, 3, 4, 8}) {
    ShardMap map(k);
    ASSERT_EQ(map.num_rings(), k);
    std::vector<ShardMap::Range> all;
    for (int r = 0; r < k; ++r) {
      const auto ranges = map.ranges_of(r);
      EXPECT_FALSE(ranges.empty()) << "ring " << r << " owns nothing";
      all.insert(all.end(), ranges.begin(), ranges.end());
    }
    std::sort(all.begin(), all.end(),
              [](const auto& a, const auto& b) { return a.lo < b.lo; });
    ASSERT_FALSE(all.empty());
    EXPECT_EQ(all.front().lo, 0u);
    EXPECT_EQ(all.back().hi, std::numeric_limits<uint64_t>::max());
    for (size_t i = 0; i + 1 < all.size(); ++i) {
      EXPECT_LE(all[i].lo, all[i].hi);
      EXPECT_EQ(all[i].hi + 1, all[i + 1].lo) << "gap/overlap after range " << i;
    }
  }
}

TEST(ShardMap, LookupMatchesRanges) {
  ShardMap map(4);
  for (uint64_t probe :
       {uint64_t{0}, uint64_t{1} << 62, uint64_t{3} << 62,
        std::numeric_limits<uint64_t>::max(), mix64(42), mix64(4242)}) {
    const int r = map.ring_of_key(probe);
    bool contained = false;
    for (const auto& range : map.ranges_of(r)) {
      contained = contained || range.contains(probe);
    }
    EXPECT_TRUE(contained) << "key " << probe << " not in ring " << r
                           << "'s own ranges";
  }
}

TEST(ShardMap, NamesSpreadAcrossRings) {
  ShardMap map(4);
  std::map<int, int> counts;
  for (int i = 0; i < 400; ++i) {
    const int r = map.ring_of("group-" + std::to_string(i));
    ASSERT_GE(r, 0);
    ASSERT_LT(r, 4);
    ++counts[r];
  }
  // Uniform would be 100 each; with kDefaultVnodes per ring the largest
  // ownership share stays within ~2x of ideal, so demand every ring gets at
  // least a third of its fair share of names.
  for (int r = 0; r < 4; ++r) EXPECT_GT(counts[r], 33) << "ring " << r;
}

TEST(ShardMap, MixedSequentialKeysSpread) {
  ShardMap map(8);
  std::set<int> rings;
  for (uint64_t key = 0; key < 512; ++key) {
    rings.insert(map.ring_of_key(mix64(key)));
  }
  EXPECT_EQ(rings.size(), 8u);
}

TEST(ShardMap, AddRemoveRingRoundTrips) {
  ShardMap map(4, /*vnodes_per_ring=*/16, /*active_rings=*/3);
  EXPECT_FALSE(map.ring_active(3));
  EXPECT_EQ(map.active_rings(), 3);

  const MigrationPlan add = map.plan_add_ring(3);
  ASSERT_FALSE(add.empty());
  EXPECT_EQ(add.from_version, 0u);
  EXPECT_EQ(add.to_version, 1u);
  for (const MigrationMove& mv : add.moves) EXPECT_EQ(mv.dst, 3);
  map.apply(add);
  EXPECT_EQ(map.version(), 1u);
  EXPECT_TRUE(map.ring_active(3));
  EXPECT_GT(map.owned_fraction(3), 0.0);

  // Removing it cedes every arc back; re-adding restores the identical
  // ownership because vnode_point is a pure function.
  const MigrationPlan rm = map.plan_remove_ring(3);
  ASSERT_FALSE(rm.empty());
  for (const MigrationMove& mv : rm.moves) EXPECT_EQ(mv.src, 3);
  map.apply(rm);
  EXPECT_FALSE(map.ring_active(3));
  EXPECT_EQ(map.version(), 2u);
  EXPECT_EQ(map.owned_fraction(3), 0.0);
}

TEST(ShardMap, StalePlanIsRejected) {
  ShardMap map(3);
  const MigrationPlan plan = map.plan_move_fraction(0, 1, 0.5);
  ASSERT_FALSE(plan.empty());
  map.apply(plan);
  EXPECT_EQ(map.version(), 1u);
  map.apply(plan);  // same plan again: from_version no longer matches
  EXPECT_EQ(map.version(), 1u);
}

// --- DeterministicMerger ----------------------------------------------------

Delivery data_msg(protocol::SeqNum seq, uint8_t tag) {
  Delivery d;
  d.seq = seq;
  d.payload = {std::byte{tag}};
  return d;
}

Delivery skip_msg(protocol::SeqNum seq, uint32_t slots) {
  Delivery d;
  d.seq = seq;
  d.payload = make_skip(slots);
  return d;
}

TEST(Merger, SkipCodecRoundTrips) {
  const auto skip = make_skip(16);
  const auto slots = decode_skip(skip);
  ASSERT_TRUE(slots.has_value());
  EXPECT_EQ(*slots, 16u);
  EXPECT_FALSE(decode_skip(data_msg(1, 7).payload).has_value());
  EXPECT_FALSE(decode_skip({}).has_value());
}

TEST(Merger, RoundRobinConsumesBatchPerRing) {
  DeterministicMerger merger(2, 2);  // M = 2
  std::vector<std::pair<int, protocol::SeqNum>> out;
  merger.set_on_merged(
      [&out](int ring, const Delivery& d) { out.emplace_back(ring, d.seq); });
  // Ring 1 first: nothing can merge until ring 0 produces its burst.
  merger.push(1, data_msg(101, 1));
  merger.push(1, data_msg(102, 1));
  EXPECT_TRUE(out.empty());
  merger.push(0, data_msg(1, 0));
  merger.push(0, data_msg(2, 0));
  // Burst of 2 from ring 0, then the waiting burst from ring 1.
  const std::vector<std::pair<int, protocol::SeqNum>> want = {
      {0, 1}, {0, 2}, {1, 101}, {1, 102}};
  EXPECT_EQ(out, want);
}

TEST(Merger, SkipCreditsAdvanceTheCursor) {
  DeterministicMerger merger(2, 4);
  std::vector<std::pair<int, protocol::SeqNum>> out;
  merger.set_on_merged(
      [&out](int ring, const Delivery& d) { out.emplace_back(ring, d.seq); });
  merger.push(1, data_msg(50, 1));
  merger.push(0, skip_msg(1, 4));  // covers ring 0's whole burst
  const std::vector<std::pair<int, protocol::SeqNum>> want = {{1, 50}};
  EXPECT_EQ(out, want);
  EXPECT_EQ(merger.stats().skip_msgs, 1u);
  EXPECT_EQ(merger.stats().skipped_slots, 4u);
  EXPECT_EQ(merger.cursor(), 1);
}

TEST(Merger, TracesMergeAndSkipEvents) {
  DeterministicMerger merger(2, 1);
  util::Tracer tracer;
  Nanos fake_now = 7;
  merger.set_tracer(&tracer, [&fake_now] { return fake_now; });
  merger.set_on_merged([](int, const Delivery&) {});
  merger.push(0, data_msg(1, 3));
  merger.push(1, skip_msg(9, 1));
  const auto records = tracer.drain();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].event, util::TraceEvent::kMergeDeliver);
  EXPECT_EQ(records[0].a, 0);
  EXPECT_EQ(records[0].b, 1);
  EXPECT_EQ(records[1].event, util::TraceEvent::kSkipMsg);
  EXPECT_EQ(records[1].a, 1);
  EXPECT_EQ(records[1].b, 9);
  // drain() emptied the buffer.
  EXPECT_TRUE(tracer.drain().empty());
}

// --- RingSet ----------------------------------------------------------------

MultiRingConfig small_config(int rings, uint64_t seed) {
  MultiRingConfig cfg;
  cfg.rings = rings;
  cfg.nodes_per_ring = 4;
  cfg.fabric = simnet::FabricParams::one_gig();
  cfg.merge_batch = 8;
  cfg.seed = seed;
  return cfg;
}

std::vector<std::byte> tagged_payload(uint32_t sender, uint32_t index) {
  util::Writer w(64);
  w.u8(0x7F);  // outside every layer's frame-tag space
  w.u32(sender);
  w.u32(index);
  std::vector<std::byte> out = std::move(w).take();
  out.resize(64);
  return out;
}

/// Merged-order fingerprint of one run: every (node, ring, sender, seq)
/// emission, in emission order — byte-identical across deterministic runs.
struct MergedFingerprint {
  std::vector<std::tuple<int, int, uint16_t, protocol::SeqNum>> emissions;
  uint64_t events = 0;

  bool operator==(const MergedFingerprint&) const = default;
};

MergedFingerprint run_sharded(int rings, uint64_t seed, double loss) {
  RingSet set(small_config(rings, seed));
  for (int r = 0; r < rings; ++r) set.ring(r).net().set_loss_rate(loss);
  MergedFingerprint fp;
  set.set_on_merged(
      [&fp](int node, int ring, const Delivery& d, Nanos) {
        fp.emissions.emplace_back(node, ring, d.sender, d.seq);
      });
  set.start_static();
  // Inject 120 keyed messages per node, spread over the first 40 ms.
  for (int node = 0; node < set.nodes_per_ring(); ++node) {
    for (uint32_t i = 0; i < 120; ++i) {
      const Nanos at = util::usec(200) + util::usec(330) * i;
      set.eq().schedule(at, [&set, node, i] {
        set.submit_keyed(node, static_cast<uint64_t>(node) * 1000 + i % 10,
                         Service::kAgreed,
                         tagged_payload(static_cast<uint32_t>(node), i));
      });
    }
  }
  set.run_until(util::msec(120));
  fp.events = set.eq().events_executed();
  return fp;
}

TEST(RingSet, MergedOrderDeterministicAcrossRuns) {
  const MergedFingerprint a = run_sharded(3, 11, 0.0);
  const MergedFingerprint b = run_sharded(3, 11, 0.0);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.emissions.empty());
}

TEST(RingSet, MergedOrderDeterministicUnderLoss) {
  // Same RNG seed + loss schedule => byte-identical merged delivery order
  // and an identical event count (full simulation determinism).
  const MergedFingerprint a = run_sharded(3, 23, 0.02);
  const MergedFingerprint b = run_sharded(3, 23, 0.02);
  EXPECT_EQ(a, b);
}

TEST(RingSet, AllNodesSeeTheSameMergedOrder) {
  RingSet set(small_config(2, 5));
  std::vector<std::vector<std::tuple<int, uint16_t, protocol::SeqNum>>>
      per_node(static_cast<size_t>(set.nodes_per_ring()));
  set.set_on_merged([&](int node, int ring, const Delivery& d, Nanos) {
    per_node[static_cast<size_t>(node)].emplace_back(ring, d.sender, d.seq);
  });
  set.start_static();
  for (int node = 0; node < set.nodes_per_ring(); ++node) {
    for (uint32_t i = 0; i < 60; ++i) {
      const Nanos at = util::usec(300) * (i + 1);
      set.eq().schedule(at, [&set, node, i] {
        set.submit_keyed(node, static_cast<uint64_t>(i), Service::kAgreed,
                         tagged_payload(static_cast<uint32_t>(node), i));
      });
    }
  }
  set.run_until(util::msec(150));
  ASSERT_FALSE(per_node[0].empty());
  for (int node = 1; node < set.nodes_per_ring(); ++node) {
    EXPECT_EQ(per_node[static_cast<size_t>(node)], per_node[0])
        << "node " << node << " merged a different order";
  }
  // The load really was sharded: both rings contributed.
  std::set<int> rings_seen;
  for (const auto& [ring, sender, seq] : per_node[0]) rings_seen.insert(ring);
  EXPECT_EQ(rings_seen.size(), 2u);
}

TEST(RingSet, IdleRingDoesNotStallTheMerge) {
  // All traffic goes to ring 0; ring 1 is completely idle. Without skip
  // messages the round-robin would consume one batch from ring 0 and then
  // wait forever on ring 1.
  RingSet set(small_config(2, 9));
  uint64_t merged = 0;
  Nanos last_merge = 0;
  set.set_on_merged([&](int node, int, const Delivery&, Nanos at) {
    if (node == 0) {
      ++merged;
      last_merge = at;
    }
  });
  set.start_static();
  const uint32_t kMessages = 100;  // > several merge batches
  for (uint32_t i = 0; i < kMessages; ++i) {
    set.eq().schedule(util::usec(300) * (i + 1), [&set, i] {
      set.submit(0, /*ring=*/0, Service::kAgreed, tagged_payload(0, i));
    });
  }
  set.run_until(util::msec(200));
  EXPECT_EQ(merged, kMessages);
  // The merger kept up throughout (skips arrived every interval), rather
  // than flushing everything at the end.
  EXPECT_LT(last_merge, util::msec(60));
  EXPECT_GT(set.merger(0).stats().skip_msgs, 10u);
  EXPECT_EQ(set.merger(0).queued(0), 0u);
}

TEST(RingSet, PerRingStatsExposeDeliveriesAndTraffic) {
  RingSet set(small_config(2, 3));
  set.set_on_merged([](int, int, const Delivery&, Nanos) {});
  set.start_static();
  for (uint32_t i = 0; i < 40; ++i) {
    set.eq().schedule(util::usec(400) * (i + 1), [&set, i] {
      set.submit(0, static_cast<int>(i % 2), Service::kAgreed,
                 tagged_payload(0, i));
    });
  }
  set.run_until(util::msec(100));
  const std::vector<harness::ClusterStats> stats = set.ring_stats();
  ASSERT_EQ(stats.size(), 2u);
  for (const harness::ClusterStats& cs : stats) {
    ASSERT_EQ(cs.nodes.size(), 4u);
    // Every node saw the ring's data messages plus its skip traffic.
    EXPECT_GT(cs.delivered_total(), 0u);
    EXPECT_GT(cs.net.datagrams_delivered, 0u);
    EXPECT_GT(cs.max_cpu_utilization(), 0.0);
  }
  // The always-on per-node flight recorders saw protocol activity.
  EXPECT_GT(set.ring(0).tracer(0).total_recorded(), 0u);
}

// --- live migration ----------------------------------------------------------

TEST(RingSetMigration, AddRingUnderLoadCompletesWithIdenticalOrders) {
  MultiRingConfig cfg = small_config(3, 31);
  cfg.active_rings = 2;  // ring 2 runs but owns no hash space yet
  RingSet set(cfg);
  ASSERT_EQ(set.shards().active_rings(), 2);
  std::vector<std::vector<std::tuple<int, uint16_t, protocol::SeqNum>>>
      per_node(static_cast<size_t>(set.nodes_per_ring()));
  set.set_on_merged([&](int node, int ring, const Delivery& d, Nanos) {
    per_node[static_cast<size_t>(node)].emplace_back(ring, d.sender, d.seq);
  });
  set.start_static();

  // Steady keyed load across the whole run; the handoff happens underneath.
  for (int node = 0; node < set.nodes_per_ring(); ++node) {
    for (uint32_t i = 0; i < 150; ++i) {
      const Nanos at = util::usec(200) + util::usec(600) * i;
      set.eq().schedule(at, [&set, node, i] {
        set.submit_keyed(node, static_cast<uint64_t>(node) * 1000 + i % 24,
                         Service::kAgreed,
                         tagged_payload(static_cast<uint32_t>(node), i));
      });
    }
  }
  set.eq().schedule(util::msec(20), [&set] {
    EXPECT_TRUE(set.start_migration(set.shards().plan_add_ring(2)));
  });
  set.run_until(util::msec(250));

  EXPECT_TRUE(set.migration_idle());
  EXPECT_EQ(set.completed_migrations(), 1u);
  EXPECT_EQ(set.shards().version(), 1u);
  EXPECT_TRUE(set.shards().ring_active(2));
  EXPECT_EQ(set.held_messages(), 0u);
  // Every node applied the same map transition (marker-driven).
  for (int node = 0; node < set.nodes_per_ring(); ++node) {
    EXPECT_EQ(set.router(node).version(), 1u) << "node " << node;
    EXPECT_FALSE(set.router(node).migrating());
  }
  // The merged order stayed identical at every node across the handoff.
  ASSERT_FALSE(per_node[0].empty());
  for (int node = 1; node < set.nodes_per_ring(); ++node) {
    EXPECT_EQ(per_node[static_cast<size_t>(node)], per_node[0])
        << "node " << node << " merged a different order across the handoff";
  }
  // The new ring actually took traffic, and markers were merged (but hidden
  // from the application callback, which only saw rings' data).
  std::set<int> rings_seen;
  for (const auto& [ring, sender, seq] : per_node[0]) rings_seen.insert(ring);
  EXPECT_TRUE(rings_seen.contains(2));
  EXPECT_GT(set.merger(0).stats().handoff_markers, 0u);
}

TEST(RingSetMigration, MoveFractionFlushesHeldToDestination) {
  RingSet set(small_config(2, 47));
  uint64_t merged = 0;
  set.set_on_merged(
      [&merged](int node, int, const Delivery&, Nanos) { merged += node == 0; });
  set.start_static();
  for (int node = 0; node < set.nodes_per_ring(); ++node) {
    for (uint32_t i = 0; i < 120; ++i) {
      set.eq().schedule(util::usec(300) * (i + 1), [&set, node, i] {
        set.submit_keyed(node, static_cast<uint64_t>(i % 32), Service::kAgreed,
                         tagged_payload(static_cast<uint32_t>(node), i));
      });
    }
  }
  set.eq().schedule(util::msec(10), [&set] {
    EXPECT_TRUE(set.start_migration(set.shards().plan_move_fraction(0, 1, 0.5)));
  });
  set.run_until(util::msec(250));
  EXPECT_TRUE(set.migration_idle());
  EXPECT_EQ(set.completed_migrations(), 1u);
  // Nothing stranded: every submission held across freeze->activate was
  // flushed to the destination and merged.
  EXPECT_EQ(set.held_messages(), 0u);
  EXPECT_EQ(merged,
            static_cast<uint64_t>(set.nodes_per_ring()) * 120u);
}

TEST(RingSetMigration, SecondMigrationRejectedWhileInFlight) {
  RingSet set(small_config(2, 7));
  set.set_on_merged([](int, int, const Delivery&, Nanos) {});
  set.start_static();
  const MigrationPlan plan = set.shards().plan_move_fraction(0, 1, 0.25);
  ASSERT_FALSE(plan.empty());
  EXPECT_TRUE(set.start_migration(plan));
  EXPECT_FALSE(set.migration_idle());
  EXPECT_FALSE(set.start_migration(set.shards().plan_move_fraction(1, 0, 0.25)))
      << "overlapping migrations must be refused";
  // An empty plan is refused outright.
  set.run_until(util::msec(100));
  EXPECT_TRUE(set.migration_idle());
  EXPECT_FALSE(set.start_migration(MigrationPlan{}));
  EXPECT_EQ(set.completed_migrations(), 1u);
}

// --- GroupLayer over sharded rings ------------------------------------------

/// N logical daemons over a RingSet: every daemon runs one GroupLayer whose
/// sends RingSet::submit_named routes to each group's shard ring and whose
/// deliveries come from the merged stream.
struct ShardedGroups {
  RingSet set;
  std::vector<std::unique_ptr<groups::GroupLayer>> layers;
  // (node, client, group, payload byte) in merged delivery order.
  std::vector<std::tuple<int, uint32_t, std::string, char>> messages;

  explicit ShardedGroups(int rings, uint64_t seed = 1)
      : set(small_config(rings, seed)) {
    for (int n = 0; n < set.nodes_per_ring(); ++n) {
      std::vector<groups::GroupLayer::SubmitFn> submits;
      for (int r = 0; r < rings; ++r) {
        submits.push_back([this, n, r](Service service,
                                       std::vector<std::byte> payload) {
          set.submit(n, r, service, std::move(payload));
          return true;
        });
      }
      layers.push_back(std::make_unique<groups::GroupLayer>(
          static_cast<protocol::ProcessId>(n), std::move(submits),
          groups::GroupLayer::KeyedSubmitFn(
              [this, n](std::string_view group, Service service,
                        std::vector<std::byte> payload) {
                set.submit_named(n, group, service, std::move(payload));
                return true;
              })));
      layers.back()->set_on_message(
          [this, n](uint32_t client, const std::string& group,
                    const std::string&, Service,
                    std::span<const std::byte> payload) {
            messages.emplace_back(n, client, group,
                                  payload.empty()
                                      ? '\0'
                                      : static_cast<char>(payload[0]));
          });
    }
    set.set_on_merged([this](int node, int, const Delivery& d, Nanos) {
      layers[static_cast<size_t>(node)]->on_delivery(d);
    });
    set.start_static();
  }

  void run_ms(int64_t ms) { set.run_until(set.eq().now() + util::msec(ms)); }
};

TEST(ShardedGroupLayer, GroupsOnDifferentRingsStayConsistent) {
  ShardedGroups sg(3);
  // Find two group names that hash to different rings.
  std::string ga = "alpha";
  std::string gb;
  for (int i = 0; i < 64 && gb.empty(); ++i) {
    std::string candidate = "beta-" + std::to_string(i);
    if (sg.set.shards().ring_of(candidate) != sg.set.shards().ring_of(ga)) {
      gb = candidate;
    }
  }
  ASSERT_FALSE(gb.empty());

  ASSERT_TRUE(sg.layers[0]->join(1, "alice", ga));
  ASSERT_TRUE(sg.layers[1]->join(2, "bob", gb));
  sg.run_ms(50);
  // Both groups exist at every daemon, despite living on different rings.
  for (int n = 0; n < sg.set.nodes_per_ring(); ++n) {
    EXPECT_FALSE(sg.layers[static_cast<size_t>(n)]->groups().members_of(ga).empty());
    EXPECT_FALSE(sg.layers[static_cast<size_t>(n)]->groups().members_of(gb).empty());
  }

  ASSERT_TRUE(sg.layers[2]->send(7, "carol", {ga},
                                 Service::kAgreed,
                                 util::to_vector(util::as_bytes("A"))));
  ASSERT_TRUE(sg.layers[3]->send(8, "dave", {gb}, Service::kAgreed,
                                 util::to_vector(util::as_bytes("B"))));
  sg.run_ms(50);

  // alice (node 0, client 1) got A; bob (node 1, client 2) got B.
  std::set<std::tuple<int, uint32_t, std::string, char>> got(
      sg.messages.begin(), sg.messages.end());
  EXPECT_TRUE(got.contains({0, 1u, ga, 'A'}));
  EXPECT_TRUE(got.contains({1, 2u, gb, 'B'}));
  EXPECT_EQ(sg.messages.size(), 2u);
}

TEST(ShardedGroupLayer, DisconnectLeavesGroupsOnEveryRing) {
  ShardedGroups sg(2);
  // Two groups guaranteed to be on both rings (search for a pair).
  std::string g0, g1;
  for (int i = 0; i < 64 && (g0.empty() || g1.empty()); ++i) {
    std::string candidate = "room-" + std::to_string(i);
    const int r = sg.set.shards().ring_of(candidate);
    if (r == 0 && g0.empty()) g0 = candidate;
    if (r == 1 && g1.empty()) g1 = candidate;
  }
  ASSERT_FALSE(g0.empty());
  ASSERT_FALSE(g1.empty());
  ASSERT_TRUE(sg.layers[0]->join(1, "alice", g0));
  ASSERT_TRUE(sg.layers[0]->join(1, "alice", g1));
  sg.run_ms(50);
  ASSERT_FALSE(sg.layers[2]->groups().members_of(g0).empty());
  ASSERT_FALSE(sg.layers[2]->groups().members_of(g1).empty());

  ASSERT_TRUE(sg.layers[0]->disconnect(1, "alice"));
  sg.run_ms(50);
  // alice's memberships are gone everywhere, on both rings.
  for (int n = 0; n < sg.set.nodes_per_ring(); ++n) {
    EXPECT_TRUE(sg.layers[static_cast<size_t>(n)]->groups().members_of(g0).empty());
    EXPECT_TRUE(sg.layers[static_cast<size_t>(n)]->groups().members_of(g1).empty());
  }
}

TEST(ShardedGroupLayer, ElasticRoutingSurvivesRingRemoval) {
  // The elastic assembly: group routing lives in the substrate's versioned
  // ShardRouter (submit_named), so a group's home ring can be drained out
  // from under the layer while clients keep sending.
  RingSet set(small_config(3, 13));
  std::vector<std::unique_ptr<groups::GroupLayer>> layers;
  std::vector<std::vector<std::pair<int, char>>> delivered(
      static_cast<size_t>(set.nodes_per_ring()));
  for (int n = 0; n < set.nodes_per_ring(); ++n) {
    std::vector<groups::GroupLayer::SubmitFn> submits;
    for (int r = 0; r < set.num_rings(); ++r) {
      submits.push_back(
          [&set, n, r](Service service, std::vector<std::byte> payload) {
            set.submit(n, r, service, std::move(payload));
            return true;
          });
    }
    layers.push_back(std::make_unique<groups::GroupLayer>(
        static_cast<protocol::ProcessId>(n), std::move(submits),
        groups::GroupLayer::KeyedSubmitFn(
            [&set, n](std::string_view group, Service service,
                      std::vector<std::byte> payload) {
              set.submit_named(n, group, service, std::move(payload));
              return true;
            })));
    layers.back()->set_on_message(
        [&delivered, n](uint32_t client, const std::string&,
                        const std::string&, Service,
                        std::span<const std::byte> payload) {
          delivered[static_cast<size_t>(n)].emplace_back(
              static_cast<int>(client),
              payload.empty() ? '\0' : static_cast<char>(payload[0]));
        });
  }
  set.set_on_merged([&layers](int node, int, const Delivery& d, Nanos) {
    layers[static_cast<size_t>(node)]->on_delivery(d);
  });
  set.start_static();

  const std::string group = "elastic-room";
  const int home = set.shards().ring_of(group);
  // One member client per daemon, so every daemon delivers every send and
  // the delivery sequences are comparable across nodes.
  for (int n = 0; n < set.nodes_per_ring(); ++n) {
    ASSERT_TRUE(layers[static_cast<size_t>(n)]->join(
        static_cast<uint32_t>(100 + n), "m" + std::to_string(n), group));
  }
  set.run_until(util::msec(40));
  ASSERT_EQ(layers[2]->groups().members_of(group).size(),
            static_cast<size_t>(set.nodes_per_ring()));

  // Drain the group's home ring while node 1 keeps sending: sends landing in
  // the freeze->activate window are held and flushed to the new owner.
  set.eq().schedule(set.eq().now() + util::usec(100), [&set, home] {
    EXPECT_TRUE(set.start_migration(set.shards().plan_remove_ring(home)));
  });
  const uint32_t kSends = 30;
  for (uint32_t i = 0; i < kSends; ++i) {
    set.eq().schedule(set.eq().now() + util::usec(400) * (i + 1),
                      [&layers, &group, i] {
                        EXPECT_TRUE(layers[1]->send(
                            2, "bob", {group}, Service::kAgreed,
                            util::to_vector(util::as_bytes("x"))));
                        (void)i;
                      });
  }
  set.run_until(set.eq().now() + util::msec(200));

  EXPECT_TRUE(set.migration_idle());
  EXPECT_EQ(set.completed_migrations(), 1u);
  EXPECT_FALSE(set.shards().ring_active(home));
  EXPECT_NE(set.shards().ring_of(group), home);
  EXPECT_EQ(set.held_messages(), 0u);
  // Every daemon's local member received every send exactly once — no gap,
  // no dup across the handoff.
  for (int n = 0; n < set.nodes_per_ring(); ++n) {
    const auto& got = delivered[static_cast<size_t>(n)];
    ASSERT_EQ(got.size(), static_cast<size_t>(kSends)) << "node " << n;
    for (const auto& [client, byte] : got) {
      EXPECT_EQ(client, 100 + n);
      EXPECT_EQ(byte, 'x');
    }
  }
}

// --- RSM over the merged stream ---------------------------------------------

class CounterMachine final : public rsm::StateMachine {
 public:
  void apply(std::span<const std::byte> command) override {
    util::Reader r(command);
    const uint32_t key = r.u32();
    const int64_t delta = r.i64();
    if (r.done()) values_[key] += delta;
  }
  [[nodiscard]] std::vector<std::byte> snapshot() const override {
    util::Writer w(12 * values_.size() + 4);
    w.u32(static_cast<uint32_t>(values_.size()));
    for (const auto& [k, v] : values_) {
      w.u32(k);
      w.i64(v);
    }
    return std::move(w).take();
  }
  void restore(std::span<const std::byte> snapshot) override {
    values_.clear();
    util::Reader r(snapshot);
    const uint32_t n = r.u32();
    for (uint32_t i = 0; i < n && r.ok(); ++i) {
      const uint32_t k = r.u32();
      values_[k] = r.i64();
    }
  }
  [[nodiscard]] const std::map<uint32_t, int64_t>& values() const {
    return values_;
  }

 private:
  std::map<uint32_t, int64_t> values_;
};

TEST(MultiRingRsm, ReplicasConvergeAtopShardedRings) {
  // The replicated-state-machine demo runs unchanged on K rings: proposals
  // are sharded by key, every replica applies the merged stream.
  RingSet set(small_config(3, 17));
  const int n = set.nodes_per_ring();
  std::vector<std::unique_ptr<CounterMachine>> machines;
  std::vector<std::unique_ptr<rsm::Replica>> replicas;
  for (int i = 0; i < n; ++i) {
    machines.push_back(std::make_unique<CounterMachine>());
    // Key 0's commands must all take one ring (they contend); route by key.
    auto submit = [&set, i](std::vector<std::byte> payload) {
      util::Reader r(payload);
      r.u8();  // rsm frame tag
      const uint32_t key = r.u32();
      set.submit_keyed(i, key, Service::kAgreed, std::move(payload));
      return true;
    };
    replicas.push_back(std::make_unique<rsm::Replica>(
        static_cast<protocol::ProcessId>(i), *machines[i], submit,
        /*founder=*/true));
  }
  set.set_on_merged([&replicas](int node, int, const Delivery& d, Nanos) {
    replicas[static_cast<size_t>(node)]->on_delivery(d);
  });
  set.start_static();

  // Every node increments 16 keys concurrently.
  for (int node = 0; node < n; ++node) {
    for (uint32_t i = 0; i < 80; ++i) {
      set.eq().schedule(util::usec(250) * (i + 1), [&replicas, node, i] {
        util::Writer w(12);
        w.u32(i % 16);
        w.i64(1);
        const std::vector<std::byte> cmd = std::move(w).take();
        replicas[static_cast<size_t>(node)]->submit(cmd);
      });
    }
  }
  set.run_until(util::msec(200));

  ASSERT_EQ(machines[0]->values().size(), 16u);
  int64_t total = 0;
  for (const auto& [k, v] : machines[0]->values()) total += v;
  EXPECT_EQ(total, static_cast<int64_t>(n) * 80);
  for (int i = 1; i < n; ++i) {
    EXPECT_EQ(machines[static_cast<size_t>(i)]->values(),
              machines[0]->values())
        << "replica " << i << " diverged";
    EXPECT_EQ(replicas[static_cast<size_t>(i)]->stats().applied,
              replicas[0]->stats().applied);
  }
}

// --- measurement helper -----------------------------------------------------

TEST(MultiRingMeasure, PointRunsAndAccountsPerRing) {
  MultiPointConfig cfg;
  cfg.ring = small_config(2, 2);
  cfg.offered_mbps = 60;
  cfg.payload_size = 400;
  cfg.warmup = util::msec(30);
  cfg.measure = util::msec(60);
  const harness::PointResult r = run_multiring_point(cfg);
  EXPECT_GT(r.achieved_mbps, 40.0);
  EXPECT_GT(r.messages, 100u);
  EXPECT_GT(r.mean_latency, 0);
  ASSERT_EQ(r.per_ring_mbps.size(), 2u);
  EXPECT_GT(r.per_ring_mbps[0], 0.0);
  EXPECT_GT(r.per_ring_mbps[1], 0.0);
}

}  // namespace
}  // namespace accelring::multiring
