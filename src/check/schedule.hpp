// Fault-schedule DSL for the campaign runner.
//
// A Schedule is a short list of timed fault events against a running
// cluster: loss bursts, token drops, partitions (with immediate or delayed
// heal), and node crash/restart. Schedules are generated deterministically
// from a seed by small scenario generators, so a failure reproduces from
// (scenario, seed) alone; the campaign runner (campaign.hpp) also shrinks a
// failing schedule to a minimal reproducer by greedy event removal, which
// works because every event is independently droppable (a heal without a
// partition, or a restart without a crash, degrades to a no-op).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simnet/topology.hpp"
#include "util/time.hpp"

namespace accelring::check {

using util::Nanos;

enum class FaultKind : uint8_t {
  kLossBurst,     ///< random loss at `rate` for `duration`
  kTokenDrop,     ///< absorb the next `count` token-socket datagrams
  kPartition,     ///< move `group` into their own partition
  kHeal,          ///< put every host back into one partition
  kCrash,         ///< take `node` down
  kRestart,       ///< cold-restart `node` (no-op unless it is down)
  kLatencyShift,  ///< add `extra_latency` to every delivery for `duration`
  kOverload,      ///< client fleet: `count` extra sends burst from `node`
  kCpuMultiplier, ///< scale `node`'s simulated CPU costs by `rate` (1 = heal)
  kLinkLoss,      ///< drop `rate` of frames on the `peer`->`node` link
  kLinkDown,      ///< black-hole the `peer`->`node` link for `duration`
  kReorder,       ///< reorder `rate` of deliveries (up to `extra_latency` late)
  kDuplicate,     ///< duplicate `rate` of deliveries
  // Correlated faults (WAN scenarios; see docs/TOPOLOGIES.md).
  kRackPower,     ///< crash every host in `group` at once (rack power loss)
  kRackRestore,   ///< cold-restart every downed host in `group`
  kSwitchBrownout, ///< dc `node`: loss `rate` + `extra_latency` on every port
                   ///< for `duration`
  kWanDown,       ///< WAN link `node`<->`peer` (dc ids) down for `duration`
  // Storage faults (durable KV scenarios; see docs/ROBUSTNESS.md).
  kPowerLossAll,    ///< whole-cluster power loss: every up node crashes at once
  kPowerRestoreAll, ///< restart every downed node; recovery comes from disk
  kDiskDesync,      ///< `node`'s write cache starts lying (`count` picks the
                    ///< crash mode: 1 = torn, 2 = reorder); cleared by the
                    ///< next power loss
  kDiskBitRot,      ///< flip `count` durable bits in `node`'s shard files
  kDiskFull,        ///< `node`'s disk reports ENOSPC for `duration`
  kDiskStall,       ///< `node`'s next `count` disk ops fail with IO errors
};

[[nodiscard]] const char* fault_name(FaultKind kind);

struct FaultEvent {
  Nanos at = 0;
  FaultKind kind = FaultKind::kLossBurst;
  int node = -1;           ///< crash / restart victim
  double rate = 0;         ///< loss probability during a burst
  Nanos duration = 0;      ///< loss-burst length
  uint32_t count = 0;      ///< token datagrams to absorb / burst sends
  Nanos extra_latency = 0; ///< added delivery latency during a shift
  int peer = -1;           ///< link-fault source host (-1 = any sender)
  std::vector<int> group = {};  ///< partition members split off
};

struct Schedule {
  std::string scenario;
  std::vector<FaultEvent> events;
};

[[nodiscard]] std::string describe(const FaultEvent& event);
[[nodiscard]] std::string describe(const Schedule& schedule);

/// Scenario generator: deterministic schedule from (seed, cluster size,
/// fault horizon). All generated events land inside [horizon/10, horizon].
using ScenarioFn = Schedule (*)(uint64_t seed, int nodes, Nanos horizon);

/// What a scenario runs on its cluster(s): the workload, the services under
/// it, and the oracles beyond the protocol ones every run attaches.
enum class Stack : uint8_t {
  kRaw,        ///< direct engine submits
  kClients,    ///< daemons + failover clients (ClientFleet); single-ring
  kKv,         ///< KvService + SessionWorkload + KvOracle; single-ring
  kDurableKv,  ///< kKv with per-node ReplicaStores + DurabilityOracle
};

/// A catalogue entry. Set the fields by name:
/// `{.name = "crash", .make = crash, .multiring_safe = true}`.
struct Scenario {
  const char* name;
  ScenarioFn make;
  Stack stack = Stack::kRaw;
  /// Runs on the campaign's multi-datacenter topology
  /// (campaign_wan_topology) with WAN-scaled protocol timeouts and a longer
  /// drain, instead of the single-switch LAN fabric.
  bool wan = false;
  /// Also runs against a multi-ring set, with the raw stack: its faults
  /// keep one merged total order.
  bool multiring_safe = false;

  /// Whether the campaign runs this scenario on a set of `rings` rings.
  [[nodiscard]] bool runs_at(int rings) const {
    return rings <= 1 || multiring_safe;
  }
};

/// The 3-datacenter topology every WAN campaign scenario runs on: `nodes`
/// hosts split contiguously over 3 metro-distance DCs (3 ms WAN propagation
/// — far above the LAN's 300 ns, small enough that token rotation stays well
/// inside the WAN campaign timeouts), racks of 2, full WAN mesh.
/// Deterministic: correlated-fault group selection draws against this.
[[nodiscard]] simnet::Topology campaign_wan_topology(int nodes);

/// The scenario catalogue, in campaign order.
[[nodiscard]] const std::vector<Scenario>& scenarios();
/// Lookup by name; nullptr when unknown.
[[nodiscard]] const Scenario* find_scenario(const std::string& name);

/// All one-event-removed variants, in order (for greedy shrinking).
[[nodiscard]] std::vector<Schedule> shrink_candidates(
    const Schedule& schedule);

}  // namespace accelring::check
