#include "check/schedule.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "util/rng.hpp"

namespace accelring::check {
namespace {

using util::Rng;

// Generators build events with designated initializers, whose clauses
// evaluate in FaultEvent's declaration order; where an event's rng draws
// follow another order, its fields are set one statement at a time. Either
// way a generator's draw order is part of its output (the corpus seeds
// replay it), so keep it when editing one.

/// A fault time inside the active window [horizon/10, horizon * 7/10] (so
/// the tail of the horizon still carries faulted traffic before the drain).
Nanos fault_time(Rng& rng, Nanos horizon) {
  const Nanos lo = horizon / 10;
  const Nanos hi = horizon * 7 / 10;
  return rng.range(lo, hi);
}

/// A crash / restart victim. Node 0 is excluded: it creates the pre-agreed
/// static start ring (epoch 1), and a cold restart of creator `i` can
/// legitimately recreate ring id (1, i) — excluding node 0 keeps ring ids
/// unique per run so the oracles' cross-node checks stay strict.
int victim(Rng& rng, int nodes) {
  return static_cast<int>(rng.range(1, nodes - 1));
}

/// `lo_ms`..`hi_ms` after `t`, clamped to the horizon.
Nanos after(Rng& rng, Nanos t, int lo_ms, int hi_ms, Nanos horizon) {
  return std::min<Nanos>(t + util::msec(rng.range(lo_ms, hi_ms)), horizon);
}

/// The event of `kind` that undoes `e` on the same node (or group)
/// `lo_ms`..`hi_ms` later: the restart after a crash, the power restore
/// after a power loss.
FaultEvent undo(Rng& rng, const FaultEvent& e, FaultKind kind, int lo_ms,
                int hi_ms, Nanos horizon) {
  return {.at = after(rng, e.at, lo_ms, hi_ms, horizon),
          .kind = kind,
          .node = e.node,
          .group = e.group};
}

/// A loss burst at rate 0.05 + U * `spread` for 5..`max_ms` ms.
FaultEvent loss_burst(Rng& rng, Nanos horizon, double spread, int max_ms) {
  return {.at = fault_time(rng, horizon),
          .kind = FaultKind::kLossBurst,
          .rate = 0.05 + rng.uniform() * spread,
          .duration = util::msec(rng.range(5, max_ms))};
}

/// 1-3 loss bursts at rate 0.05 + U * `spread`.
Schedule some_loss_bursts(const char* name, double spread, uint64_t seed,
                          Nanos horizon) {
  Rng rng(seed);
  Schedule s{name, {}};
  const int bursts = static_cast<int>(rng.range(1, 3));
  for (int i = 0; i < bursts; ++i) {
    s.events.push_back(loss_burst(rng, horizon, spread, 40));
  }
  return s;
}

Schedule loss_bursts(uint64_t seed, int, Nanos horizon) {
  return some_loss_bursts("loss_bursts", 0.35, seed, horizon);
}

Schedule token_drops(uint64_t seed, int, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"token_drops", {}};
  const int drops = static_cast<int>(rng.range(1, 3));
  for (int i = 0; i < drops; ++i) {
    s.events.push_back({.at = fault_time(rng, horizon),
                        .kind = FaultKind::kTokenDrop,
                        .count = static_cast<uint32_t>(rng.range(1, 5))});
  }
  return s;
}

/// Split off a random non-empty strict subset of the nodes.
std::vector<int> random_group(Rng& rng, int nodes) {
  std::vector<int> group;
  const int take = static_cast<int>(rng.range(1, nodes - 1));
  // Reservoir-free pick: walk nodes, take until quota met.
  for (int n = 0; n < nodes && static_cast<int>(group.size()) < take; ++n) {
    const int left = nodes - n;
    const int need = take - static_cast<int>(group.size());
    if (rng.below(static_cast<uint64_t>(left)) <
        static_cast<uint64_t>(need)) {
      group.push_back(n);
    }
  }
  return group;
}

Schedule make_partition(uint64_t seed, int nodes, Nanos horizon,
                        bool delayed_heal) {
  Rng rng(seed);
  Schedule s{delayed_heal ? "partition_delayed_heal" : "partition", {}};
  s.events.push_back({.at = fault_time(rng, horizon),
                      .kind = FaultKind::kPartition,
                      .group = random_group(rng, nodes)});
  s.events.push_back(
      {.at = delayed_heal
                 ? horizon - horizon / 10  // heal only just before the drain
                 : after(rng, s.events.back().at, 30, 80, horizon),
       .kind = FaultKind::kHeal});
  return s;
}

Schedule partition(uint64_t seed, int nodes, Nanos horizon) {
  return make_partition(seed, nodes, horizon, /*delayed_heal=*/false);
}

Schedule partition_delayed_heal(uint64_t seed, int nodes, Nanos horizon) {
  return make_partition(seed, nodes, horizon, /*delayed_heal=*/true);
}

Schedule crash(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  return {"crash",
          {{.at = fault_time(rng, horizon),
            .kind = FaultKind::kCrash,
            .node = victim(rng, nodes)}}};
}

Schedule crash_restart(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"crash_restart", {}};
  s.events.push_back({.at = fault_time(rng, horizon),
                      .kind = FaultKind::kCrash,
                      .node = victim(rng, nodes)});
  s.events.push_back(
      undo(rng, s.events.back(), FaultKind::kRestart, 20, 80, horizon));
  return s;
}

Schedule latency_shift(uint64_t seed, int, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"latency_shift", {}};
  const int shifts = static_cast<int>(rng.range(1, 2));
  for (int i = 0; i < shifts; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kLatencyShift;
    e.at = fault_time(rng, horizon);
    e.extra_latency = util::msec(rng.range(1, 8));
    e.duration = util::msec(rng.range(20, 60));
    s.events.push_back(std::move(e));
  }
  return s;
}

Schedule overload(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"overload", {}};
  const int bursts = static_cast<int>(rng.range(1, 3));
  for (int i = 0; i < bursts; ++i) {
    s.events.push_back({.at = fault_time(rng, horizon),
                        .kind = FaultKind::kOverload,
                        .node = static_cast<int>(rng.range(0, nodes - 1)),
                        .count = static_cast<uint32_t>(rng.range(200, 600))});
  }
  return s;
}

Schedule reconnect_storm(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"reconnect_storm", {}};
  // Any node may be the victim, node 0 included: the persisted epoch store
  // guarantees a cold restart never recreates a ring id, so the oracles'
  // strict cross-node checks hold even for the static-start creator.
  const int victims = static_cast<int>(rng.range(1, 2));
  for (int i = 0; i < victims; ++i) {
    s.events.push_back({.at = fault_time(rng, horizon),
                        .kind = FaultKind::kCrash,
                        .node = static_cast<int>(rng.range(0, nodes - 1))});
    s.events.push_back(
        undo(rng, s.events.back(), FaultKind::kRestart, 20, 60, horizon));
  }
  return s;
}

Schedule straggler_cpu(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  // One member turns gray: every instruction costs 4-12x. The gray-failure
  // detector should quarantine it; the oracles verify nobody healthy is
  // touched and the ring keeps delivering.
  return {"straggler_cpu",
          {{.at = fault_time(rng, horizon),
            .kind = FaultKind::kCpuMultiplier,
            .node = victim(rng, nodes),
            .rate = 4.0 + rng.uniform() * 8.0}}};
}

Schedule lossy_nic(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  // One member's receive path degrades: frames from every sender toward it
  // drop with probability 0.1-0.35 (an ingress NIC fault, invisible to the
  // symmetric loss model). The victim keeps requesting retransmissions every
  // rotation, which is exactly the signature the detector watches.
  return {"lossy_nic",
          {{.at = fault_time(rng, horizon),
            .kind = FaultKind::kLinkLoss,
            .node = victim(rng, nodes),
            .rate = 0.10 + rng.uniform() * 0.25,
            .peer = -1}}};  // every sender -> victim
}

Schedule flapping_link(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"flapping_link", {}};
  // One directed link flaps down/up 3-6 times. Each down period is short
  // enough that token-loss recovery usually rides it out; the campaign
  // verifies ordering safety holds through the churn either way.
  const int node = victim(rng, nodes);
  const int peer = (node + 1 + static_cast<int>(rng.range(
                        0, nodes - 2))) % nodes;
  const int flaps = static_cast<int>(rng.range(3, 6));
  for (int i = 0; i < flaps; ++i) {
    s.events.push_back({.at = fault_time(rng, horizon),
                        .kind = FaultKind::kLinkDown,
                        .node = node,
                        .duration = util::msec(rng.range(2, 12)),
                        .peer = peer});
  }
  return s;
}

Schedule reorder_duplicate(uint64_t seed, int, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"reorder_duplicate", {}};
  FaultEvent reorder;
  reorder.kind = FaultKind::kReorder;
  reorder.at = fault_time(rng, horizon);
  reorder.rate = 0.05 + rng.uniform() * 0.20;
  reorder.extra_latency = util::usec(rng.range(50, 400));
  reorder.duration = util::msec(rng.range(20, 60));
  s.events.push_back(std::move(reorder));
  if (rng.chance(0.7)) {
    s.events.push_back({.at = fault_time(rng, horizon),
                        .kind = FaultKind::kDuplicate,
                        .rate = 0.05 + rng.uniform() * 0.15,
                        .duration = util::msec(rng.range(20, 60))});
  }
  return s;
}

Schedule mixed(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"mixed", {}};
  s.events.push_back(loss_burst(rng, horizon, 0.25, 25));
  s.events.push_back({.at = fault_time(rng, horizon),
                      .kind = FaultKind::kTokenDrop,
                      .count = static_cast<uint32_t>(rng.range(1, 3))});
  const int node = victim(rng, nodes);
  s.events.push_back(
      {.at = fault_time(rng, horizon), .kind = FaultKind::kCrash, .node = node});
  if (rng.chance(0.5)) {
    // Restart may land before the crash; the runner skips it then, which is
    // exactly the droppable-event property shrinking relies on.
    s.events.push_back({.at = fault_time(rng, horizon),
                        .kind = FaultKind::kRestart,
                        .node = node});
  }
  return s;
}

Schedule kv_state_transfer_crash(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"kv_state_transfer_crash", {}};
  // A member crashes and cold-restarts, forcing a chunked state transfer;
  // node 0 — the lowest veteran, hence the transfer sender — then crashes
  // right after the restart, with good odds of dying mid-transfer. Both
  // victims may restart (the epoch store keeps ring ids unique even for the
  // static-start creator, the reconnect_storm precedent).
  s.events.push_back({.at = fault_time(rng, horizon),
                      .kind = FaultKind::kCrash,
                      .node = victim(rng, nodes)});
  s.events.push_back(
      undo(rng, s.events.back(), FaultKind::kRestart, 20, 60, horizon));
  s.events.push_back({.at = after(rng, s.events.back().at, 0, 10, horizon),
                      .kind = FaultKind::kCrash,
                      .node = 0});
  if (rng.chance(0.7)) {
    s.events.push_back(
        undo(rng, s.events.back(), FaultKind::kRestart, 20, 50, horizon));
  }
  return s;
}

Schedule kv_lease_holder_crash(uint64_t seed, int, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"kv_lease_holder_crash", {}};
  // Node 0 is the designated leaseholder of shard 0 in the initial view:
  // kill it while it serves lease reads. The survivors must revoke on the
  // view change, the successor's lease must wait out the guard, and the
  // oracle's exclusivity check must stay clean throughout.
  s.events.push_back({.at = fault_time(rng, horizon),
                      .kind = FaultKind::kCrash,
                      .node = 0});
  if (rng.chance(0.5)) {
    s.events.push_back(
        undo(rng, s.events.back(), FaultKind::kRestart, 30, 90, horizon));
  }
  return s;
}

// --- WAN / correlated-fault scenarios (campaign_wan_topology) --------------

/// Random loss bursts, but on the 3-DC WAN topology: the retransmission and
/// failure-detection machinery rides them out across real link delay.
Schedule wan_loss_bursts(uint64_t seed, int, Nanos horizon) {
  return some_loss_bursts("wan_loss_bursts", 0.25, seed, horizon);
}

/// Two deliberately *overlapping* latency shifts on the WAN topology. The
/// fabric composes shifts additively on top of the per-link WAN propagation
/// (add_extra_latency); the overlap is the regression surface for the old
/// overwrite bug, where the second onset erased the first and the first
/// expiry erased the second.
Schedule wan_latency_surge(uint64_t seed, int, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"wan_latency_surge", {}};
  FaultEvent first;
  first.kind = FaultKind::kLatencyShift;
  first.at = fault_time(rng, horizon);
  first.extra_latency = util::msec(rng.range(1, 5));
  first.duration = util::msec(rng.range(40, 80));
  FaultEvent second;
  second.kind = FaultKind::kLatencyShift;
  second.at = std::min<Nanos>(first.at + first.duration / 2, horizon);
  second.extra_latency = util::msec(rng.range(1, 4));
  second.duration = util::msec(rng.range(30, 60));
  s.events.push_back(std::move(first));
  s.events.push_back(std::move(second));
  return s;
}

/// Pick one (dc, rack) power domain of the campaign topology. Deterministic
/// for a given (seed, nodes): the racks come from the topology (fixed) and
/// the index from the schedule rng.
std::vector<int> pick_rack(Rng& rng, int nodes) {
  const std::vector<std::vector<int>> racks =
      campaign_wan_topology(nodes).racks();
  std::vector<int> rack = racks[rng.below(racks.size())];
  // Never power off the whole cluster: keep at most nodes-2 victims so a
  // majority-ish remainder can keep a ring alive.
  while (static_cast<int>(rack.size()) > nodes - 2) rack.pop_back();
  return rack;
}

/// Rack power loss: every host in one rack crashes at the same instant, and
/// power returns 40-`max_ms` ms later (cold restarts through the epoch
/// store).
Schedule some_rack_power(const char* name, int max_ms, uint64_t seed,
                         int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{name, {}};
  s.events.push_back({.at = fault_time(rng, horizon),
                      .kind = FaultKind::kRackPower,
                      .group = pick_rack(rng, nodes)});
  s.events.push_back(
      undo(rng, s.events.back(), FaultKind::kRackRestore, 40, max_ms, horizon));
  return s;
}

Schedule rack_power(uint64_t seed, int nodes, Nanos horizon) {
  return some_rack_power("rack_power", 90, seed, nodes, horizon);
}

/// Switch brownout: one DC's switch degrades every port — elevated loss and
/// forwarding latency for a bounded window, then recovers.
Schedule switch_brownout(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  const int dcs = campaign_wan_topology(nodes).num_dcs;
  FaultEvent e;
  e.kind = FaultKind::kSwitchBrownout;
  e.at = fault_time(rng, horizon);
  e.node = static_cast<int>(rng.below(static_cast<uint64_t>(dcs)));
  e.rate = 0.05 + rng.uniform() * 0.10;
  e.extra_latency = util::msec(rng.range(1, 4));
  e.duration = util::msec(rng.range(30, 80));
  return {"switch_brownout", {std::move(e)}};
}

/// DC flap: one WAN link cycles down/up several times (routing is static, so
/// each down window black-holes that inter-DC path).
Schedule dc_flap(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"dc_flap", {}};
  const simnet::Topology topo = campaign_wan_topology(nodes);
  const simnet::WanLinkParams& link =
      topo.wan_links[rng.below(topo.wan_links.size())];
  const int flaps = static_cast<int>(rng.range(2, 4));
  for (int i = 0; i < flaps; ++i) {
    s.events.push_back({.at = fault_time(rng, horizon),
                        .kind = FaultKind::kWanDown,
                        .node = link.dc_a,
                        .duration = util::msec(rng.range(4, 12)),
                        .peer = link.dc_b});
  }
  return s;
}

/// The full KV stack across datacenters with a rack losing power mid-run:
/// leases, sessions, and state transfer all cross WAN links while a
/// correlated crash group (possibly including the leaseholder) cycles.
Schedule kv_wan_rack_power(uint64_t seed, int nodes, Nanos horizon) {
  return some_rack_power("kv_wan_rack_power", 80, seed, nodes, horizon);
}

// --- storage-fault scenarios (durable KV runs; see docs/ROBUSTNESS.md) -----

/// Whole-cluster power loss with honest disks: every node crashes at the
/// same instant and power returns 40-90 ms later. The WAL is fsynced before
/// every apply, so the DurabilityOracle demands *exact* recovery — every
/// node comes back at precisely the version it had applied.
Schedule kv_blackout(uint64_t seed, int, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"kv_blackout", {}};
  s.events.push_back(
      {.at = fault_time(rng, horizon), .kind = FaultKind::kPowerLossAll});
  s.events.push_back(undo(rng, s.events.back(), FaultKind::kPowerRestoreAll,
                          40, 90, horizon));
  return s;
}

/// Blackout with a lying write cache on a minority: their un-fsynced WAL
/// suffixes die torn (or flush-reordered) at the power loss. The desync
/// windows open strictly before the blackout and no other fault runs in
/// between, so no membership churn (epoch mints) lands on a lying disk.
/// Acked writes durable only on the liars are legitimately lost (the
/// oracle excuses them); anything a safe node applied must survive.
Schedule kv_blackout_torn(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"kv_blackout_torn", {}};
  // 1-2 lying disks, never node 0, always a minority.
  const int max_liars = std::max(1, std::min(2, nodes - 2));
  const int want = 1 + static_cast<int>(rng.below(
                           static_cast<uint64_t>(max_liars)));
  std::vector<int> liars;
  while (static_cast<int>(liars.size()) < want) {
    const int v = victim(rng, nodes);
    bool dup = false;
    for (const int l : liars) dup = dup || l == v;
    if (!dup) liars.push_back(v);
  }
  for (const int l : liars) {
    s.events.push_back(
        {.at = rng.range(horizon / 10, horizon * 4 / 10),
         .kind = FaultKind::kDiskDesync,
         .node = l,
         .count = 1 + static_cast<uint32_t>(rng.below(2))});  // torn/reorder
  }
  s.events.push_back({.at = horizon / 2 + rng.range(0, horizon / 5),
                      .kind = FaultKind::kPowerLossAll});
  s.events.push_back(undo(rng, s.events.back(), FaultKind::kPowerRestoreAll,
                          40, 90, horizon));
  return s;
}

/// Durable bit rot: flip a few bits in one node's shard files (WAL or
/// checkpoint — never the epoch file), then crash and cold-restart that
/// node. Recovery must *reject* the corrupt tail (CRCs), fall back to the
/// longest valid prefix, and let peer state transfer close the rest; the
/// rot pairs with a single-node restart, never a blackout, so the truth
/// always survives on the majority.
Schedule kv_disk_bitrot(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"kv_disk_bitrot", {}};
  s.events.push_back({.at = fault_time(rng, horizon),
                      .kind = FaultKind::kDiskBitRot,
                      .node = victim(rng, nodes),
                      .count = 1 + static_cast<uint32_t>(rng.below(8))});
  s.events.push_back({.at = after(rng, s.events.back().at, 5, 30, horizon),
                      .kind = FaultKind::kCrash,
                      .node = s.events.back().node});
  s.events.push_back(
      undo(rng, s.events.back(), FaultKind::kRestart, 20, 60, horizon));
  return s;
}

/// Disk stress: one node rides an ENOSPC window and an IO-stall burst, then
/// crashes and (usually) restarts. Failed WAL appends latch the store
/// broken until the next checkpoint heals it, so the victim may recover
/// behind its applied position — the oracle only demands the prefix
/// property there, and peers carry it forward.
Schedule kv_disk_stress(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"kv_disk_stress", {}};
  const int node = victim(rng, nodes);
  s.events.push_back({.at = fault_time(rng, horizon),
                      .kind = FaultKind::kDiskFull,
                      .node = node,
                      .duration = util::msec(rng.range(10, 40))});
  s.events.push_back({.at = fault_time(rng, horizon),
                      .kind = FaultKind::kDiskStall,
                      .node = node,
                      .count = static_cast<uint32_t>(rng.range(5, 30))});
  s.events.push_back(
      {.at = fault_time(rng, horizon), .kind = FaultKind::kCrash, .node = node});
  if (rng.chance(0.8)) {
    s.events.push_back(
        undo(rng, s.events.back(), FaultKind::kRestart, 20, 60, horizon));
  }
  return s;
}

}  // namespace

simnet::Topology campaign_wan_topology(int nodes) {
  const int dcs = std::min(3, std::max(1, nodes - 1));
  return simnet::make_wan_topology(nodes, dcs, util::msec(3),
                                   /*wan_bps=*/1e9, /*full_mesh=*/true,
                                   /*rack_size=*/2);
}

const char* fault_name(FaultKind kind) {
  // In FaultKind's declaration order.
  static constexpr const char* kNames[] = {
      "loss_burst", "token_drop", "partition", "heal", "crash", "restart",
      "latency_shift", "overload", "cpu_multiplier", "link_loss", "link_down",
      "reorder", "duplicate", "rack_power", "rack_restore", "switch_brownout",
      "wan_down", "power_loss_all", "power_restore_all", "disk_desync",
      "disk_bitrot", "disk_full", "disk_stall"};
  static_assert(std::size(kNames) ==
                static_cast<size_t>(FaultKind::kDiskStall) + 1);
  return kNames[static_cast<size_t>(kind)];
}

std::string describe(const FaultEvent& event) {
  std::ostringstream os;
  os << "t=" << util::to_msec(event.at) << "ms " << fault_name(event.kind);
  const auto hosts = [&](const char* label) {
    os << " " << label << "={";
    for (size_t i = 0; i < event.group.size(); ++i) {
      if (i) os << ",";
      os << event.group[i];
    }
    os << "}";
  };
  switch (event.kind) {
    case FaultKind::kLossBurst:
      os << " rate=" << event.rate << " for " << util::to_msec(event.duration)
         << "ms";
      break;
    case FaultKind::kTokenDrop:
      os << " count=" << event.count;
      break;
    case FaultKind::kPartition:
      hosts("group");
      break;
    case FaultKind::kHeal:
    case FaultKind::kPowerLossAll:
    case FaultKind::kPowerRestoreAll:
      break;
    case FaultKind::kCrash:
    case FaultKind::kRestart:
      os << " node=" << event.node;
      break;
    case FaultKind::kLatencyShift:
      os << " extra=" << util::to_msec(event.extra_latency) << "ms for "
         << util::to_msec(event.duration) << "ms";
      break;
    case FaultKind::kOverload:
      os << " node=" << event.node << " count=" << event.count;
      break;
    case FaultKind::kCpuMultiplier:
      os << " node=" << event.node << " x" << event.rate;
      break;
    case FaultKind::kLinkLoss:
      os << " " << event.peer << "->" << event.node << " rate=" << event.rate;
      break;
    case FaultKind::kLinkDown:
      os << " " << event.peer << "->" << event.node << " for "
         << util::to_msec(event.duration) << "ms";
      break;
    case FaultKind::kReorder:
      os << " rate=" << event.rate << " jitter="
         << util::to_usec(event.extra_latency) << "us for "
         << util::to_msec(event.duration) << "ms";
      break;
    case FaultKind::kDuplicate:
      os << " rate=" << event.rate << " for "
         << util::to_msec(event.duration) << "ms";
      break;
    case FaultKind::kRackPower:
    case FaultKind::kRackRestore:
      hosts("hosts");
      break;
    case FaultKind::kSwitchBrownout:
      os << " dc=" << event.node << " rate=" << event.rate << " extra="
         << util::to_msec(event.extra_latency) << "ms for "
         << util::to_msec(event.duration) << "ms";
      break;
    case FaultKind::kWanDown:
      os << " dc" << event.node << "<->dc" << event.peer << " for "
         << util::to_msec(event.duration) << "ms";
      break;
    case FaultKind::kDiskDesync:
      os << " node=" << event.node
         << " mode=" << (event.count >= 2 ? "reorder" : "torn");
      break;
    case FaultKind::kDiskBitRot:
      os << " node=" << event.node << " bits=" << event.count;
      break;
    case FaultKind::kDiskFull:
      os << " node=" << event.node << " for "
         << util::to_msec(event.duration) << "ms";
      break;
    case FaultKind::kDiskStall:
      os << " node=" << event.node << " ops=" << event.count;
      break;
  }
  return os.str();
}

std::string describe(const Schedule& schedule) {
  std::ostringstream os;
  os << schedule.scenario << " [";
  for (size_t i = 0; i < schedule.events.size(); ++i) {
    if (i) os << "; ";
    os << describe(schedule.events[i]);
  }
  os << "]";
  return os.str();
}

const std::vector<Scenario>& scenarios() {
  // Append only: run_campaign salts each schedule seed with the catalogue
  // index, so inserting an entry would change every later scenario's
  // schedules and the corpus seeds would stop replaying what they found.
  static const std::vector<Scenario> kScenarios = {
      {.name = "loss_bursts", .make = loss_bursts, .multiring_safe = true},
      {.name = "token_drops", .make = token_drops, .multiring_safe = true},
      {.name = "partition", .make = partition, .multiring_safe = true},
      {.name = "partition_delayed_heal",
       .make = partition_delayed_heal,
       .multiring_safe = true},
      {.name = "crash", .make = crash, .multiring_safe = true},
      {.name = "crash_restart", .make = crash_restart},
      {.name = "mixed", .make = mixed},
      {.name = "latency_shift", .make = latency_shift, .multiring_safe = true},
      {.name = "overload", .make = overload, .stack = Stack::kClients},
      {.name = "reconnect_storm",
       .make = reconnect_storm,
       .stack = Stack::kClients},
      // Gray-failure scenarios. Not multiring-safe: a quarantine eviction
      // legitimately changes ring membership, which the merged-prefix
      // oracle must not excuse.
      {.name = "straggler_cpu", .make = straggler_cpu},
      {.name = "lossy_nic", .make = lossy_nic},
      {.name = "flapping_link", .make = flapping_link},
      {.name = "reorder_duplicate",
       .make = reorder_duplicate,
       .multiring_safe = true},
      // The whole KV stack — state transfer, leases, sessions — under its
      // nastiest faults, judged by the KvOracle on top of the protocol
      // oracles.
      {.name = "kv_state_transfer_crash",
       .make = kv_state_transfer_crash,
       .stack = Stack::kKv},
      {.name = "kv_lease_holder_crash",
       .make = kv_lease_holder_crash,
       .stack = Stack::kKv},
      // WAN / correlated faults. Loss and latency surges are multiring-safe;
      // rack power (restarts), brownout (legitimate quarantines) and flaps
      // (connectivity loss) are single-ring.
      {.name = "wan_loss_bursts",
       .make = wan_loss_bursts,
       .wan = true,
       .multiring_safe = true},
      {.name = "wan_latency_surge",
       .make = wan_latency_surge,
       .wan = true,
       .multiring_safe = true},
      {.name = "rack_power", .make = rack_power, .wan = true},
      {.name = "switch_brownout", .make = switch_brownout, .wan = true},
      {.name = "dc_flap", .make = dc_flap, .wan = true},
      {.name = "kv_wan_rack_power",
       .make = kv_wan_rack_power,
       .stack = Stack::kKv,
       .wan = true},
      // Storage faults: power cut mid-run under per-node durable stores.
      {.name = "kv_blackout", .make = kv_blackout, .stack = Stack::kDurableKv},
      {.name = "kv_blackout_torn",
       .make = kv_blackout_torn,
       .stack = Stack::kDurableKv},
      {.name = "kv_disk_bitrot",
       .make = kv_disk_bitrot,
       .stack = Stack::kDurableKv},
      {.name = "kv_disk_stress",
       .make = kv_disk_stress,
       .stack = Stack::kDurableKv},
  };
  return kScenarios;
}

const Scenario* find_scenario(const std::string& name) {
  for (const Scenario& s : scenarios()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::vector<Schedule> shrink_candidates(const Schedule& schedule) {
  std::vector<Schedule> out;
  out.reserve(schedule.events.size());
  for (size_t drop = 0; drop < schedule.events.size(); ++drop) {
    Schedule cand;
    cand.scenario = schedule.scenario;
    for (size_t i = 0; i < schedule.events.size(); ++i) {
      if (i != drop) cand.events.push_back(schedule.events[i]);
    }
    out.push_back(std::move(cand));
  }
  return out;
}

}  // namespace accelring::check
