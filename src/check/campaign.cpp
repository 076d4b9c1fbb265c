#include "check/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <set>

#include "check/client_fleet.hpp"
#include "check/durability_oracle.hpp"
#include "check/kv_oracle.hpp"
#include "harness/workload.hpp"
#include "kv/workload.hpp"
#include "multiring/ring_set.hpp"
#include "obs/flight.hpp"
#include "storage/replica_store.hpp"
#include "util/rng.hpp"

namespace accelring::check {
namespace {

/// Per-node submit cadence of the campaign workload.
constexpr Nanos kSubmitInterval = util::msec(2);

protocol::Service pick_service(uint32_t index) {
  // Mostly Agreed with a steady trickle of Safe, so both delivery paths and
  // both sides of the safe line are exercised under faults.
  return index % 5 == 0 ? protocol::Service::kSafe : protocol::Service::kAgreed;
}

/// Schedule the per-node workload chains on `eq`. `submit` is called with
/// (node, index) at each firing; indices are unique per node.
template <typename SubmitFn>
void arm_workload(simnet::EventQueue& eq, const RunOptions& opt,
                  SubmitFn submit) {
  const int64_t shots = opt.horizon / kSubmitInterval;
  for (int node = 0; node < opt.nodes; ++node) {
    // Phase-shift nodes so submissions do not synchronize.
    const Nanos phase = kSubmitInterval * node / std::max(opt.nodes, 1);
    for (int64_t k = 0; k < shots; ++k) {
      const Nanos at = kSubmitInterval * k + phase + util::usec(50);
      eq.schedule_after(at, [submit, node, k] {
        submit(node, static_cast<uint32_t>(k));
      });
    }
  }
}

harness::PayloadStamp stamp_of(simnet::EventQueue& eq, int node,
                               uint32_t index) {
  harness::PayloadStamp stamp;
  stamp.inject_time = eq.now();
  stamp.sender = static_cast<uint32_t>(node);
  stamp.index = index;
  return stamp;
}

/// The migration campaigns' keyed workload: a small universe of shared
/// stream ids (so every key sees many messages from many submitters across
/// a handoff), uniform by default, triangular-skewed toward key 0 for the
/// hot-shard scenarios. Deterministic in (node, index) alone, so the
/// MergedOracle recomputes the routing key from the payload stamp.
uint64_t keyed_stream_id(bool zipf, int node, uint32_t index) {
  constexpr uint64_t kKeyUniverse = 64;
  const uint64_t h =
      multiring::mix64((static_cast<uint64_t>(node) << 32) | index);
  if (!zipf) return h % kKeyUniverse;
  // min of two uniforms: mass concentrates at small ids, key 0 hottest.
  return std::min(h % kKeyUniverse, (h >> 32) % kKeyUniverse);
}

/// What a schedule's faults justify. Partitions, crashes, restarts, rack
/// or cluster power loss and a severed inter-DC path (`churn`) can
/// legitimately remove any node from a configuration; a gray fault (slow
/// CPU, lossy or severed link, browned-out switch) justifies removing only
/// its victims (`degraded`).
struct Blame {
  bool churn = false;
  std::set<int> degraded;
};

Blame blame(const Schedule& schedule, const simnet::Topology& topo) {
  Blame b;
  for (const FaultEvent& e : schedule.events) {
    switch (e.kind) {
      case FaultKind::kPartition:
      case FaultKind::kCrash:
      case FaultKind::kRestart:
      case FaultKind::kRackPower:
      case FaultKind::kRackRestore:
      case FaultKind::kWanDown:
      case FaultKind::kPowerLossAll:
      case FaultKind::kPowerRestoreAll:
        b.churn = true;
        break;
      case FaultKind::kCpuMultiplier:
        if (e.rate > 1.0) b.degraded.insert(e.node);
        break;
      case FaultKind::kLinkLoss:
        b.degraded.insert(e.node);
        break;
      case FaultKind::kLinkDown:
        // A severed directed link degrades both endpoints' view of each
        // other; either may legitimately fall out of a configuration.
        b.degraded.insert(e.node);
        if (e.peer >= 0) b.degraded.insert(e.peer);
        break;
      case FaultKind::kSwitchBrownout:
        for (int h = 0; h < topo.num_hosts(); ++h) {
          if (topo.dc_of(h) == e.node) b.degraded.insert(h);
        }
        break;
      default:
        break;
    }
  }
  return b;
}

/// One run's system under test — a SimCluster, or a RingSet when K > 1 —
/// with its stack's services and oracles: everything the fault applier
/// acts on.
struct Target {
  Target() = default;
  Target(const Target&) = delete;  // the run's callbacks hold its address
  Target& operator=(const Target&) = delete;

  Stack stack = Stack::kRaw;
  std::unique_ptr<harness::SimCluster> cluster;  ///< K == 1
  std::unique_ptr<multiring::RingSet> ring_set;  ///< K > 1
  std::vector<harness::SimCluster*> clusters;    ///< one per ring
  std::vector<std::unique_ptr<ClusterOracle>> oracles;  ///< one per ring
  std::unique_ptr<MergedOracle> merged;          ///< K > 1
  std::unique_ptr<ClientFleet> fleet;            ///< Stack::kClients
  std::unique_ptr<kv::KvService> service;        ///< kv stacks
  std::unique_ptr<KvOracle> kv_oracle;           ///< kv stacks
  std::unique_ptr<DurabilityOracle> durability;  ///< Stack::kDurableKv
  std::unique_ptr<kv::SessionWorkload> workload;  ///< kv stacks
  uint32_t token_drops = 0;  ///< token datagrams still to absorb

  [[nodiscard]] simnet::EventQueue& eq() {
    return ring_set ? ring_set->eq() : cluster->eq();
  }
  [[nodiscard]] bool down(int n) const {
    return clusters.front()->net().host_down(n);
  }
  /// Crash `n` (no-op when it is down). The durability oracle snapshots the
  /// node's applied versions before the crash resolves its un-fsynced disk
  /// state; the other observers follow it.
  void crash(int n) {
    if (down(n)) return;
    if (durability) durability->note_crash(n);
    if (ring_set) {
      ring_set->crash_node(n);
    } else {
      cluster->crash_node(n);
    }
    for (const auto& oracle : oracles) oracle->note_crash(n);
    if (fleet) fleet->on_crash(n);
    if (service) service->on_crash(n);
  }
  /// Cold-restart `n` (no-op when it is up); single-ring only. The
  /// durability oracle judges the recovered versions last.
  bool restart(int n) {
    if (!down(n)) return false;
    cluster->restart_node(n);
    oracles.front()->note_restart(n);
    if (fleet) fleet->on_restart(n);
    if (service) {
      service->on_restart(n);
      kv_oracle->note_restart(n);
    }
    if (durability) durability->note_restart(n);
    return true;
  }
  void disk_unsafe(int n, const char* why) {
    if (durability) durability->note_disk_unsafe(n, why);
  }
};

/// Start a live migration. Ring indices resolve against K (-1 = the last
/// ring, others modulo K). Droppable by design: an empty plan (adding an
/// active ring, removing the last active one, moving a span onto itself)
/// or a migration already in flight makes it a no-op.
void migrate(multiring::RingSet& rings, const FaultEvent& e) {
  if (!rings.migration_idle()) return;
  const multiring::ShardMap& map = rings.shards();
  const int k = rings.num_rings();
  const auto ring_arg = [k](int r) { return r < 0 ? k - 1 : r % k; };
  multiring::MigrationPlan plan;
  if (e.count == 1) {
    plan = map.plan_add_ring(ring_arg(e.peer));
  } else if (e.count == 2) {
    plan = map.plan_remove_ring(ring_arg(e.node));
  } else if (e.count == 3) {
    plan = map.plan_move_fraction(ring_arg(e.node), ring_arg(e.peer), e.rate);
  } else if (e.count == 4) {
    // Rebalance: the ring owning stream id 0 (the zipf-hot key) is the
    // hottest; the smallest ownership share takes the slice.
    const int hot = map.ring_of_key(multiring::mix64(0));
    int coldest = 0;
    for (int r = 1; r < k; ++r) {
      if (map.owned_fraction(r) < map.owned_fraction(coldest)) coldest = r;
    }
    plan = map.plan_move_fraction(hot, coldest, e.rate);
  }
  (void)rings.start_migration(plan);
}

/// The fault applier. Network faults hit every ring's fabric; a timed one
/// reverts after `duration` in one event for all rings.
void apply(Target& t, const FaultEvent& e) {
  if (!stack_applies(t.stack, static_cast<int>(t.clusters.size()), e.kind)) {
    return;
  }
  using Net = simnet::Network;
  const auto nets = [&t](auto fn) {
    for (harness::SimCluster* c : t.clusters) fn(c->net());
  };
  const auto for_duration = [&](auto onset, auto expiry) {
    nets(onset);
    t.eq().schedule_after(e.duration, [&t, expiry] {
      for (harness::SimCluster* c : t.clusters) expiry(c->net());
    });
  };
  const auto disks = [&](auto fn) {
    for (harness::SimCluster* c : t.clusters) fn(c->disk(e.node));
  };
  const int nodes = t.clusters.front()->size();
  switch (e.kind) {
    case FaultKind::kLossBurst:
      for_duration([&](Net& net) { net.set_loss_rate(e.rate); },
                   [](Net& net) { net.set_loss_rate(0); });
      break;
    case FaultKind::kTokenDrop:
      t.token_drops += e.count;
      break;
    case FaultKind::kPartition:
      nets([&](Net& net) {
        for (int n : e.group) net.set_partition(n, 1);
      });
      break;
    case FaultKind::kHeal:
      nets([](Net& net) { net.heal(); });
      break;
    case FaultKind::kCrash:
      t.crash(e.node);
      break;
    case FaultKind::kRestart:
      // Droppable by design: a restart whose crash was shrunk away (or that
      // fires before it) is a no-op.
      t.restart(e.node);
      break;
    case FaultKind::kLatencyShift:
      // Shifts compose additively (overlapping congestion episodes add up);
      // the expiry subtracts exactly its own onset, and the fabric clamps
      // at 0 if a heal-all already absorbed it.
      for_duration(
          [&](Net& net) { net.add_extra_latency(e.extra_latency); },
          [d = e.extra_latency](Net& net) { net.add_extra_latency(-d); });
      break;
    case FaultKind::kOverload:
      t.fleet->burst(e.node, e.count);
      break;
    case FaultKind::kCpuMultiplier:
      // Droppable: rate 1 (or a multiplier shrunk away) is a no-op.
      for (harness::SimCluster* c : t.clusters) {
        c->process(e.node).set_cpu_multiplier(e.rate);
      }
      break;
    case FaultKind::kLinkLoss:
      nets([&](Net& net) { net.set_link_loss(e.peer, e.node, e.rate); });
      break;
    case FaultKind::kLinkDown:
      for_duration(
          [&](Net& net) { net.set_link_down(e.peer, e.node, true); },
          [e](Net& net) { net.set_link_down(e.peer, e.node, false); });
      break;
    case FaultKind::kReorder:
      for_duration(
          [&](Net& net) { net.set_reorder(e.rate, e.extra_latency); },
          [](Net& net) { net.set_reorder(0, 0); });
      break;
    case FaultKind::kDuplicate:
      for_duration([&](Net& net) { net.set_duplicate(e.rate); },
                   [](Net& net) { net.set_duplicate(0); });
      break;
    case FaultKind::kRackPower:
      // One power domain dies at the same instant.
      for (int n : e.group) t.crash(n);
      break;
    case FaultKind::kRackRestore:
      for (int n : e.group) t.restart(n);
      break;
    case FaultKind::kSwitchBrownout:
      for_duration(
          [&](Net& net) {
            net.set_dc_brownout(e.node, e.rate, e.extra_latency);
          },
          [dc = e.node](Net& net) { net.set_dc_brownout(dc, 0, 0); });
      break;
    case FaultKind::kWanDown:
      for_duration(
          [&](Net& net) { net.set_wan_down(e.node, e.peer, true); },
          [e](Net& net) { net.set_wan_down(e.node, e.peer, false); });
      break;
    case FaultKind::kPowerLossAll:
      for (int n = 0; n < nodes; ++n) t.crash(n);
      break;
    case FaultKind::kPowerRestoreAll: {
      bool any = false;
      for (int n = 0; n < nodes; ++n) any = t.restart(n) || any;
      // The whole cluster is back: judge what survived against the
      // committed history, then roll the KV oracle onto the revived
      // lineage. Skipped when the power loss was shrunk away.
      if (any && t.durability) {
        t.durability->note_cluster_recovery(t.kv_oracle.get());
      }
      break;
    }
    case FaultKind::kDiskDesync:
      disks([&](storage::SimDisk& disk) {
        disk.set_crash_mode(e.count >= 2 ? storage::CrashMode::kReorder
                                         : storage::CrashMode::kTorn);
        disk.set_write_cache_lies(true);
      });
      t.disk_unsafe(e.node, "lying write cache");
      break;
    case FaultKind::kDiskBitRot:
      disks([&](storage::SimDisk& disk) {
        disk.flip_bits(static_cast<int>(e.count), "shard");
      });
      t.disk_unsafe(e.node, "bit rot");
      break;
    case FaultKind::kDiskFull:
      disks([](storage::SimDisk& disk) { disk.set_capacity(1); });
      t.disk_unsafe(e.node, "enospc");
      t.eq().schedule_after(e.duration, [&t, node = e.node] {
        for (harness::SimCluster* c : t.clusters) {
          c->disk(node).set_capacity(0);
        }
      });
      break;
    case FaultKind::kDiskStall:
      disks([&](storage::SimDisk& disk) {
        disk.stall_ops(static_cast<int>(e.count));
      });
      t.disk_unsafe(e.node, "io stall");
      break;
    case FaultKind::kRingOffline:
      // Construction-time hint, consumed before the run started.
      break;
    case FaultKind::kMigrate:
      migrate(*t.ring_set, e);
      break;
  }
}

/// Single-ring stacks: the cluster, its oracle, and the stack's client
/// fleet or KV service with its oracles and workload.
void build_cluster(Target& t, const RunOptions& opt,
                   const simnet::Topology& topo, bool wan, uint64_t seed) {
  RunOptions ropt = opt;
  if (t.stack == Stack::kClients) {
    // A client run must be able to overload its daemons within one burst:
    // clamp the engine queue so sends actually cross the high-water line.
    ropt.proto.max_pending = std::min<size_t>(ropt.proto.max_pending, 384);
  }
  t.cluster = std::make_unique<harness::SimCluster>(
      topo, ropt.fabric, ropt.proto, ropt.profile, seed);
  harness::SimCluster& cluster = *t.cluster;
  t.clusters = {&cluster};
  // Metrics ride along only when a failure would dump them: recording is
  // perturbation-free (obs_determinism_test), so the verdict is unaffected,
  // and passing runs skip the registry allocations.
  if (!opt.artifact_dir.empty()) cluster.enable_metrics();
  t.oracles.push_back(std::make_unique<ClusterOracle>(opt.nodes));
  t.oracles.back()->attach(cluster);

  if (t.stack == Stack::kClients) {
    FleetOptions fopt;
    fopt.daemon.session_queue_limit = 48;
    fopt.seed = seed;
    t.fleet = std::make_unique<ClientFleet>(cluster, fopt);
    return;
  }
  if (t.stack != Stack::kKv && t.stack != Stack::kDurableKv) return;
  kv::ServiceConfig scfg;
  scfg.shards = 1;
  scfg.preload_keys = 0;  // the KvOracle needs a fully observed history
  if (t.stack == Stack::kDurableKv) {
    // Every (node, shard) replica persists to the node's SimDisk. The file
    // prefix starts with "shard" so kDiskBitRot (which targets that prefix)
    // corrupts WAL/checkpoint files but never the epoch file beside them.
    scfg.store_factory = [&cluster](int node, int shard) {
      return std::make_unique<storage::ReplicaStore>(
          cluster.disk(node), "shard" + std::to_string(shard));
    };
  }
  t.service = std::make_unique<kv::KvService>(cluster, scfg);
  kv::KvService& service = *t.service;
  if (!opt.artifact_dir.empty()) service.bind_metrics();
  t.kv_oracle = std::make_unique<KvOracle>();
  t.kv_oracle->bind(service);
  if (t.stack == Stack::kDurableKv) {
    t.durability = std::make_unique<DurabilityOracle>();
    t.durability->bind(service);
  }
  // One set of service observers fans out to both oracles (the KvOracle
  // first, so mutation history is recorded before durability bookkeeping
  // reads the same event).
  service.set_on_applied([&t](int node, int shard,
                              const kv::AppliedOp& applied, Nanos at) {
    t.kv_oracle->on_applied(node, shard, applied, at);
    if (t.durability) t.durability->on_applied(node, shard, applied, at);
  });
  service.set_on_lease_grant(
      [&t](int node, int shard, const kv::LeaseId& id, Nanos at) {
        t.kv_oracle->on_lease_grant(node, shard, id, at);
      });
  service.set_on_outcome(
      [&t](int node, const kv::Frontend::Outcome& outcome) {
        t.kv_oracle->on_outcome(node, outcome);
        if (t.durability) t.durability->on_outcome(node, outcome);
      });

  // The workload keeps issuing through the drain's first half, so reads
  // and leases are exercised across the heal.
  kv::WorkloadConfig wcfg;
  wcfg.sessions = 64;
  wcfg.keys = 128;
  wcfg.zipf_s = 0.9;
  wcfg.read_fraction = 0.7;  // write-heavy vs the bench: more history churn
  wcfg.value_size = opt.payload_size;
  wcfg.base_rate = 4000;
  wcfg.peak_factor = 1.5;
  wcfg.period = opt.horizon;
  wcfg.start = util::msec(5);
  wcfg.stop = opt.horizon + opt.drain / 2;
  wcfg.churn_per_sec = 20;
  // WAN: a quorum round-trip crosses 3 ms links, and a rack-power view
  // change takes several WAN token rotations — give ops headroom to retry
  // past it instead of timing out spuriously.
  wcfg.op_timeout = util::msec(wan ? 80 : 30);
  wcfg.measure_from = 0;
  wcfg.seed = seed;
  t.workload = std::make_unique<kv::SessionWorkload>(service, wcfg);
}

/// Multi-ring stacks: the ring set, a ClusterOracle per ring, and the
/// MergedOracle over the merged streams (with the handoff audit when keyed).
void build_ring_set(Target& t, const RunOptions& opt,
                    const simnet::Topology& topo, const Schedule& schedule,
                    uint64_t seed) {
  multiring::MultiRingConfig mcfg;
  mcfg.topology = topo;  // empty: the classic single-switch fabric
  mcfg.rings = opt.rings;
  mcfg.nodes_per_ring = opt.nodes;
  mcfg.fabric = opt.fabric;
  mcfg.proto = opt.proto;
  mcfg.profile = opt.profile;
  mcfg.merge_batch = opt.merge_batch;
  mcfg.skip_interval = opt.skip_interval;
  mcfg.seed = seed;
  // A kRingOffline event is a construction-time hint: the last ring starts
  // owning no hash space (its skip daemon still keeps the merge rotating)
  // until a kMigrate add brings it in.
  for (const FaultEvent& e : schedule.events) {
    if (e.kind == FaultKind::kRingOffline) {
      mcfg.active_rings = std::max(1, opt.rings - 1);
    }
  }
  t.ring_set = std::make_unique<multiring::RingSet>(mcfg);
  multiring::RingSet& rings = *t.ring_set;
  if (opt.inject_handoff_bug) rings.inject_stale_flush(1);
  if (!opt.artifact_dir.empty()) rings.enable_metrics();
  for (int r = 0; r < opt.rings; ++r) {
    t.clusters.push_back(&rings.ring(r));
    t.oracles.push_back(std::make_unique<ClusterOracle>(
        opt.nodes, "ring " + std::to_string(r)));
    t.oracles.back()->attach(rings.ring(r));
  }

  t.merged = std::make_unique<MergedOracle>(opt.nodes);
  MergedOracle& merged = *t.merged;
  if (opt.inject_merge_bug) {
    // Mutation: swap adjacent pairs of node 1's merged stream before the
    // oracle sees them — a deliberate total-order bug the oracles must
    // catch (and the shrinker must reduce).
    auto held = std::make_shared<
        std::optional<std::pair<int, protocol::Delivery>>>();
    rings.add_on_merged([&merged, held](int node, int ring,
                                        const protocol::Delivery& d, Nanos) {
      if (node != 1) {
        merged.on_merged(node, ring, d);
        return;
      }
      if (!held->has_value()) {
        *held = std::make_pair(ring, d);
        return;
      }
      merged.on_merged(node, ring, d);
      merged.on_merged(node, (*held)->first, (*held)->second);
      held->reset();
    });
  } else {
    merged.attach(rings);
  }
  if (t.stack == Stack::kKeyed || t.stack == Stack::kKeyedZipf) {
    // Handoff audit: recompute each delivery's routing key from the payload
    // stamp (submit_keyed mixes the raw stream id before the arc lookup, so
    // the oracle mixes identically).
    merged.enable_handoff_audit(
        [zipf = t.stack == Stack::kKeyedZipf](const protocol::Delivery& d)
            -> std::optional<MergedOracle::KeyedPayload> {
          harness::PayloadStamp stamp;
          if (!harness::parse_payload(d.payload, stamp)) return std::nullopt;
          MergedOracle::KeyedPayload kp;
          kp.key = multiring::mix64(keyed_stream_id(
              zipf, static_cast<int>(stamp.sender), stamp.index));
          kp.submitter = stamp.sender;
          kp.index = stamp.index;
          return kp;
        });
  }
}

/// The stack's workload, armed after the faults (the KV workload started
/// with the cluster).
void arm(Target& t, const RunOptions& opt) {
  simnet::EventQueue& eq = t.eq();
  switch (t.stack) {
    case Stack::kClients:
      t.fleet->start(opt.horizon);
      break;
    case Stack::kKv:
    case Stack::kDurableKv:
      break;
    case Stack::kKeyed:
    case Stack::kKeyedZipf:
      // Keyed submits through the per-node ShardRouters: the router (not the
      // caller) picks the ring, holding moving keys across each handoff, so
      // the per-ring self-delivery bookkeeping does not apply here — the
      // MergedOracle's handoff audit owns the continuity obligations.
      arm_workload(eq, opt, [&t, &opt](int node, uint32_t index) {
        if (t.down(node)) return;
        t.ring_set->submit_keyed(
            node, keyed_stream_id(t.stack == Stack::kKeyedZipf, node, index),
            pick_service(index),
            harness::make_payload(opt.payload_size,
                                  stamp_of(t.eq(), node, index)));
      });
      break;
    case Stack::kRaw:
      arm_workload(eq, opt, [&t, &opt](int node, uint32_t index) {
        if (t.down(node)) return;
        const int ring = static_cast<int>(index) % opt.rings;
        t.oracles[static_cast<size_t>(ring)]->note_submit(node, index);
        auto payload = harness::make_payload(opt.payload_size,
                                             stamp_of(t.eq(), node, index));
        if (t.ring_set) {
          t.ring_set->submit(node, ring, pick_service(index),
                             std::move(payload));
        } else {
          t.cluster->submit(node, pick_service(index), std::move(payload));
        }
      });
      break;
  }
}

/// The verdict: every oracle's violations, plus the healthy-member
/// quarantine audit and the migration liveness check.
RunResult verdict(Target& t, const RunOptions& opt, const Blame& blamed,
                  uint64_t false_ejections) {
  RunResult res;
  res.events = t.eq().events_executed();
  res.false_ejections = false_ejections;
  const auto take = [&res](const std::vector<Violation>& vs) {
    res.violations.insert(res.violations.end(), vs.begin(), vs.end());
  };
  for (size_t r = 0; r < t.clusters.size(); ++r) {
    harness::SimCluster& cluster = *t.clusters[r];
    const harness::ClusterStats stats = cluster.stats();
    res.quarantines += stats.quarantines();
    res.readmits += stats.readmits();
    t.oracles[r]->finalize(&stats);
    res.delivered += t.oracles[r]->observed();
    take(t.oracles[r]->violations());
    // Healthy-member quarantine audit: every pid any engine's membership
    // layer ever quarantined (read from the quarantine log, which — unlike
    // the trace ring buffer — never wraps) must have been the target of a
    // gray fault. Churn schedules are exempt: membership churn there can
    // hand the detector a legitimately torn ring.
    if (blamed.churn) continue;
    std::set<protocol::ProcessId> victims;
    for (int n = 0; n < opt.nodes; ++n) {
      for (const protocol::ProcessId v : cluster.engine(n).quarantine_victims()) {
        victims.insert(v);
      }
    }
    for (const protocol::ProcessId v : victims) {
      if (blamed.degraded.contains(static_cast<int>(v))) continue;
      res.violations.push_back(Violation{
          (t.ring_set ? "ring " + std::to_string(r) + ": " : std::string()) +
          "healthy member quarantined: node " + std::to_string(v) +
          " was gray-failure evicted but no fault degraded it"});
    }
  }
  if (t.fleet) {
    const FleetReport fr = t.fleet->finalize();
    res.client_delivered = fr.delivered;
    take(fr.violations);
  }
  if (t.kv_oracle) {
    t.kv_oracle->finalize();
    take(t.kv_oracle->violations());
    res.client_delivered = t.workload->stats().completed;
  }
  if (t.durability) {
    t.durability->finalize();
    take(t.durability->violations());
  }
  if (t.merged) {
    t.merged->finalize();
    take(t.merged->violations());
    // Handoff liveness: once the last migration completed (controller
    // idle), every held keyed submission must have flushed to its
    // destination. A migration still in flight at the end of the drain
    // (e.g. started during an unhealed partition after shrinking)
    // legitimately keeps its holds.
    multiring::RingSet& rings = *t.ring_set;
    if (rings.migration_idle() && rings.held_messages() != 0) {
      res.violations.push_back(Violation{
          "migration completed but " + std::to_string(rings.held_messages()) +
          " keyed message(s) still held un-flushed"});
    }
  }
  res.ok = res.violations.empty();
  res.report = join_reports(res.violations);
  return res;
}

/// Flight-recorder artifact for a failed run: violations, each node's trace
/// ring, a metric snapshot, and every storage fault a disk logged (what each
/// disk did to the data is exactly what a durability failure reproduces
/// from).
std::string dump_flight(Target& t, const RunOptions& opt,
                        const Schedule& schedule, uint64_t seed,
                        const RunResult& res) {
  const obs::MetricsRegistry metrics = t.ring_set
                                           ? t.ring_set->merged_metrics()
                                           : t.cluster->merged_metrics();
  obs::FlightRecord record;
  record.scenario = schedule.scenario;
  record.seed = seed;
  record.captured_at = t.eq().now();
  for (const Violation& v : res.violations) {
    record.violations.push_back(v.what);
  }
  for (size_t r = 0; r < t.clusters.size(); ++r) {
    for (int n = 0; n < opt.nodes; ++n) {
      obs::FlightNode fn;
      fn.name = (t.ring_set ? "ring" + std::to_string(r) + "/" : "") +
                std::string("node") + std::to_string(n);
      for (const std::string& line : t.clusters[r]->disk(n).fault_log()) {
        record.storage_faults.push_back(fn.name + ": " + line);
      }
      fn.events = t.clusters[r]->tracer(n).snapshot();
      record.nodes.push_back(std::move(fn));
    }
  }
  record.metrics = &metrics;
  return obs::dump_flight(record, opt.artifact_dir);
}

}  // namespace

protocol::ProtocolConfig fast_proto_config() {
  protocol::ProtocolConfig cfg;
  cfg.timeouts.token_loss = util::msec(30);
  cfg.timeouts.join = util::msec(5);
  cfg.timeouts.consensus = util::msec(60);
  return cfg;
}

protocol::ProtocolConfig campaign_proto_config() {
  protocol::ProtocolConfig cfg = fast_proto_config();
  cfg.gray.enabled = true;
  return cfg;
}

protocol::ProtocolConfig wan_proto_config() {
  protocol::ProtocolConfig cfg = campaign_proto_config();
  // A token rotation on campaign_wan_topology crosses up to three 3 ms WAN
  // links each way; the LAN-tuned timeouts would declare loss on every
  // rotation. Stretched statics keep the failure detector sound, and the
  // adaptive estimator (the feature WAN delay motivates) tightens them back
  // toward the measured rotation once the ring is steady.
  cfg.timeouts.token_retransmit = util::msec(25);
  cfg.timeouts.token_loss = util::msec(80);
  cfg.timeouts.join = util::msec(15);
  cfg.timeouts.consensus = util::msec(160);
  cfg.adaptive_timeouts = true;
  return cfg;
}

bool stack_applies(Stack stack, int rings, FaultKind kind) {
  if (kind == FaultKind::kRestart || kind == FaultKind::kRackRestore ||
      kind == FaultKind::kPowerRestoreAll) {
    // Cold restart is single-ring only: a restarted node's merged stream
    // would legitimately hold gaps (messages delivered while it was down),
    // which the merged-prefix oracle must not excuse.
    return rings == 1;
  }
  if (kind == FaultKind::kOverload) {
    return rings == 1 && stack == Stack::kClients;
  }
  if (kind == FaultKind::kRingOffline || kind == FaultKind::kMigrate) {
    return rings > 1;
  }
  return true;
}

RunResult run_schedule(const RunOptions& opt, const Schedule& schedule,
                       uint64_t seed) {
  const Scenario* sc = find_scenario(schedule.scenario);
  const bool wan = sc != nullptr && sc->wan;
  RunOptions ropt = opt;
  if (wan) {
    // WAN scenarios swap in the rescaled timeouts and give the drain room
    // for a post-heal view change over 3 ms links. Callers that already ask
    // for a longer drain keep theirs.
    ropt.proto = wan_proto_config();
    ropt.drain = std::max<Nanos>(ropt.drain, util::msec(450));
  }
  const simnet::Topology topo = wan ? campaign_wan_topology(ropt.nodes)
                                    : simnet::Topology::single_dc(ropt.nodes);
  const Blame blamed = blame(schedule, topo);
  std::set<uint64_t> ejected;  // ring ids, see RunResult::false_ejections

  Target t;
  // Ring sets run only the raw and keyed stacks, single rings every stack
  // but the keyed ones (no shard map to key by); the rest fall back to raw.
  t.stack = sc != nullptr && (ropt.rings > 1) == sc->keyed() ? sc->stack
                                                              : Stack::kRaw;
  if (ropt.rings > 1) {
    build_ring_set(t, ropt, wan ? topo : simnet::Topology{}, schedule, seed);
  } else {
    build_cluster(t, ropt, topo, wan, seed);
  }
  // Ejection audit: with no churn in the schedule, a configuration that
  // excludes a healthy, reachable node is a false ejection. Single ring
  // only: on a K=4 ring set, loss bursts alone already eject members (e.g.
  // loss_bursts seed 1), which this counter has never covered.
  if (!blamed.churn && t.cluster) {
    t.cluster->add_on_config([&t, &ejected, &blamed, nodes = ropt.nodes](
                                 int, const protocol::ConfigurationChange& c) {
      if (c.transitional) return;
      for (int n = 0; n < nodes; ++n) {
        if (t.down(n) || blamed.degraded.contains(n)) continue;
        const auto pid = static_cast<protocol::ProcessId>(n);
        bool member = false;
        for (const auto m : c.config.members) member = member || m == pid;
        if (!member) ejected.insert(c.config.ring_id);
      }
    });
  }

  if (t.ring_set) {
    t.ring_set->start_static();
  } else {
    t.cluster->start_static();
  }
  if (t.workload) t.workload->start();
  for (harness::SimCluster* c : t.clusters) {
    c->net().set_drop_filter([&t](int, int, simnet::SocketId sock,
                                  const std::vector<std::byte>&) {
      if (sock != simnet::kTokenSocket || t.token_drops == 0) return false;
      --t.token_drops;
      return true;
    });
  }
  simnet::EventQueue& eq = t.eq();
  for (const FaultEvent& e : schedule.events) {
    eq.schedule_after(e.at, [&t, e] { apply(t, e); });
  }
  arm(t, ropt);
  // Heal everything at the horizon so the drain can converge. Gray faults
  // heal too: a quarantined member turns healthy here and probes its way
  // back through probation during the drain.
  eq.schedule_after(ropt.horizon, [&t] {
    for (harness::SimCluster* c : t.clusters) {
      c->net().heal();
      c->net().set_loss_rate(0);
      c->net().set_extra_latency(0);
      c->net().clear_link_faults();  // WAN links up, brownouts off too
      for (int n = 0; n < c->size(); ++n) {
        // Back to the *constructed* speed: heterogeneous topologies keep
        // their hardware through a heal.
        c->process(n).set_cpu_multiplier(c->base_cpu_multiplier(n));
      }
    }
    t.token_drops = 0;
  });
  eq.run_until(ropt.horizon + ropt.drain);

  RunResult res = verdict(t, ropt, blamed, ejected.size());
  if (!res.ok && !ropt.artifact_dir.empty()) {
    res.artifact_path = dump_flight(t, ropt, schedule, seed, res);
  }
  return res;
}

Schedule shrink(const RunOptions& opt, const Schedule& schedule,
                uint64_t seed) {
  // Candidate runs must not spam artifacts: the failing run already dumped
  // its black box, and a shrink sweep replays hundreds of near-duplicates.
  RunOptions quiet = opt;
  quiet.artifact_dir.clear();
  Schedule best = schedule;
  bool improved = true;
  while (improved && !best.events.empty()) {
    improved = false;
    for (Schedule& cand : shrink_candidates(best)) {
      if (!run_schedule(quiet, cand, seed).ok) {
        best = std::move(cand);
        improved = true;
        break;
      }
    }
  }
  return best;
}

Schedule campaign_schedule(const Scenario& scenario, uint64_t seed,
                           const RunOptions& opt) {
  // Salted by the scenario's catalogue index, so scenarios are appended to
  // the catalogue, never inserted: that keeps the corpus seeds' schedules.
  uint64_t sm = seed * 1000003ULL +
                static_cast<uint64_t>(&scenario - scenarios().data());
  return scenario.make(util::splitmix64(sm), opt.nodes, opt.horizon);
}

CampaignResult run_campaign(const CampaignOptions& opt) {
  CampaignResult result;
  for (const Scenario& sc : scenarios()) {
    if (!opt.only.empty()) {
      bool wanted = false;
      for (const std::string& name : opt.only) wanted = wanted || name == sc.name;
      if (!wanted) continue;
    }
    if (!sc.runs_at(opt.run.rings)) continue;

    std::vector<uint64_t> seeds;
    for (int i = 0; i < opt.seeds_per_scenario; ++i) {
      seeds.push_back(opt.seed_base + static_cast<uint64_t>(i));
    }
    for (uint64_t s : opt.extra_seeds) seeds.push_back(s);

    int scenario_failures = 0;
    for (uint64_t seed : seeds) {
      const Schedule schedule = campaign_schedule(sc, seed, opt.run);
      const RunResult run = run_schedule(opt.run, schedule, seed);
      ++result.runs;
      result.delivered += run.delivered;
      result.false_ejections += run.false_ejections;
      result.quarantines += run.quarantines;
      result.readmits += run.readmits;
      if (run.ok) continue;

      ++result.failures;
      ++scenario_failures;
      std::fprintf(stderr,
                   "campaign FAILURE scenario=%s seed=%llu rings=%d\n  %s\n",
                   sc.name, static_cast<unsigned long long>(seed),
                   opt.run.rings, describe(schedule).c_str());
      for (const Violation& v : run.violations) {
        std::fprintf(stderr, "  violation: %s\n", v.what.c_str());
      }
      if (!run.artifact_path.empty()) {
        std::fprintf(stderr, "  flight record: %s\n",
                     run.artifact_path.c_str());
      }
      if (result.cases.size() < 8) {
        FailureCase fc;
        fc.scenario = sc.name;
        fc.seed = seed;
        fc.schedule = schedule;
        fc.shrunk = opt.shrink_failures ? shrink(opt.run, schedule, seed)
                                        : schedule;
        fc.report = run.report;
        if (opt.shrink_failures) {
          std::fprintf(stderr, "  shrunk to: %s\n",
                       describe(fc.shrunk).c_str());
        }
        result.cases.push_back(std::move(fc));
      }
    }
    if (opt.verbose) {
      std::fprintf(stderr, "campaign scenario=%-22s rings=%d seeds=%zu %s\n",
                   sc.name, opt.run.rings, seeds.size(),
                   scenario_failures == 0 ? "ok" : "FAILED");
    }
  }
  return result;
}

std::vector<uint64_t> load_seed_corpus(const std::string& path) {
  std::vector<uint64_t> seeds;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    line.resize(std::min(line.find('#'), line.size()));
    const size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos) continue;
    seeds.push_back(std::strtoull(line.c_str() + start, nullptr, 0));
  }
  return seeds;
}

}  // namespace accelring::check
