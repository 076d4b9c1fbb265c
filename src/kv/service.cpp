#include "kv/service.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "util/bytes.hpp"

namespace accelring::kv {

namespace {

/// Ordered-stream frame type for lease grants. rsm::Replica frames use
/// 1..4; replicas ignore this type and the service ignores theirs.
constexpr uint8_t kLeaseFrame = 16;

}  // namespace

std::string make_key(uint64_t id) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%08llu",
                static_cast<unsigned long long>(id));
  return buf;
}

std::string make_value(uint64_t id, size_t size) {
  std::string v(size, '\0');
  uint64_t x = id * 0x9e3779b97f4a7c15ULL + 1;
  for (size_t i = 0; i < size; ++i) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    v[i] = static_cast<char>('a' + (x % 26));
  }
  return v;
}

KvService::KvService(multiring::RingSet& rings, const ServiceConfig& cfg)
    : cfg_(cfg), rings_(rings) {
  assert(cfg_.shards == rings.num_rings());
  const auto n = static_cast<size_t>(nodes());
  const auto k = static_cast<size_t>(cfg_.shards);
  machines_.resize(n);
  replicas_.resize(n);
  stores_.resize(n);
  leases_.resize(n);
  views_.assign(n, std::vector<std::vector<ProcessId>>(k));
  lease_gen_.assign(n, std::vector<uint64_t>(k, 0));
  in_transitional_.assign(n, std::vector<bool>(k, false));
  exposed_version_.assign(n, std::vector<uint64_t>(k, 0));
  down_.assign(n, false);
  frontends_.resize(n);
  for (int node = 0; node < nodes(); ++node) {
    const auto pid = static_cast<ProcessId>(node);
    frontends_[node] = std::make_unique<Frontend>(
        pid, cfg_.shards,
        [this, node](int shard, std::vector<std::byte> frame) {
          return submit_frame(node, shard, std::move(frame));
        },
        [this] { return rings_.eq().now(); });
    setup_node(node, /*founder=*/true);
  }
  rings_.add_on_merged([this](int node, int ring, const protocol::Delivery& d,
                              Nanos at) { on_ring_delivery(node, ring, d, at); });
  rings_.set_on_config(
      [this](int node, int ring, const protocol::ConfigurationChange& change) {
        on_ring_config(node, ring, change);
      });
}

void KvService::setup_node(int node, bool founder) {
  auto& machines = machines_[static_cast<size_t>(node)];
  auto& replicas = replicas_[static_cast<size_t>(node)];
  auto& stores = stores_[static_cast<size_t>(node)];
  auto& leases = leases_[static_cast<size_t>(node)];
  // A retiring incarnation's counts stay visible: its divergence audits are
  // the proof obligation that disk recovery never resurrects a forked
  // lineage (see total_divergence()).
  for (const auto& replica : replicas) retired_ += replica->stats();
  machines.clear();
  replicas.clear();
  stores.clear();  // after the replicas that point into them
  leases.clear();
  if (cfg_.store_factory) {
    for (int shard = 0; shard < cfg_.shards; ++shard) {
      stores.push_back(cfg_.store_factory(node, shard));
    }
  }
  exposed_version_[static_cast<size_t>(node)].assign(
      static_cast<size_t>(cfg_.shards), 0);
  for (int shard = 0; shard < cfg_.shards; ++shard) {
    machines.push_back(std::make_unique<KvStateMachine>());
    leases.push_back(std::make_unique<LeaseTable>());
    // A restarted node's empty table may have missed an outstanding lease;
    // its first view install bounds it conservatively (see taint()).
    if (!founder) leases.back()->taint();
  }
  if (founder && cfg_.preload_keys > 0) {
    // Warm dataset, identical at every founder: loaded before the replicas
    // exist so the founding checkpoint (and therefore any state transfer)
    // carries it.
    for (uint64_t i = 0; i < cfg_.preload_keys; ++i) {
      const std::string key = make_key(i);
      const int shard = frontends_[node]->shard_of(key);
      machines[static_cast<size_t>(shard)]->preload(
          key, make_value(i, cfg_.preload_value_size));
    }
  }
  for (int shard = 0; shard < cfg_.shards; ++shard) {
    replicas.push_back(std::make_unique<rsm::Replica>(
        static_cast<ProcessId>(node), *machines[static_cast<size_t>(shard)],
        [this, node, shard](std::vector<std::byte> payload) {
          if (down_[static_cast<size_t>(node)]) return false;
          rings_.submit(node, shard, protocol::Service::kAgreed,
                         std::move(payload));
          return true;
        },
        founder, cfg_.replica,
        stores.empty() ? nullptr : stores[static_cast<size_t>(shard)].get()));
    wire_shard(node, shard);
    if (replicas.back()->stats().recovered_from_disk != 0) {
      // Disk recovery re-applied history before the observer was installed;
      // catch-up replay at or below it must not re-surface those versions.
      exposed_version_[static_cast<size_t>(node)][static_cast<size_t>(shard)] =
          machines[static_cast<size_t>(shard)]->version();
    }
  }
}

rsm::ReplicaStats KvService::replica_totals() const {
  rsm::ReplicaStats total = retired_;
  for (const auto& per_node : replicas_) {
    for (const auto& replica : per_node) total += replica->stats();
  }
  return total;
}

uint64_t KvService::total_divergence() const {
  return replica_totals().divergence_detected;
}

obs::MetricsRegistry KvService::merged_metrics() const {
  obs::MetricsRegistry merged = rings_.merged_metrics();
  if (rings_.metrics_enabled()) rsm::add_counters(merged, replica_totals());
  return merged;
}

void KvService::wire_shard(int node, int shard) {
  auto& machine = *machines_[static_cast<size_t>(node)][static_cast<size_t>(shard)];
  machine.set_on_apply([this, node, shard](const AppliedOp& applied) {
    const auto n = static_cast<size_t>(node);
    const auto s = static_cast<size_t>(shard);
    uint64_t& exposed = exposed_version_[n][s];
    if (replicas_[n][s]->in_catchup_replay() && applied.version <= exposed) {
      // State-transfer catch-up re-executing history this node already
      // surfaced (e.g. a transiently expelled member rolled forward onto
      // the majority lineage it shares a prefix with): reconstruction, not
      // a fresh apply.
      return;
    }
    exposed = std::max(exposed, applied.version);
    // Oracle first (record mutation history), then resolve the local op.
    if (applied_obs_) applied_obs_(node, shard, applied, rings_.eq().now());
    frontends_[static_cast<size_t>(node)]->on_applied(shard, applied);
  });
  frontends_[static_cast<size_t>(node)]->attach_shard(
      shard, machines_[static_cast<size_t>(node)][static_cast<size_t>(shard)].get(),
      leases_[static_cast<size_t>(node)][static_cast<size_t>(shard)].get(),
      replicas_[static_cast<size_t>(node)][static_cast<size_t>(shard)].get());
}

bool KvService::submit_frame(int node, int shard,
                             std::vector<std::byte> payload) {
  if (down_[static_cast<size_t>(node)]) return false;
  return replicas_[static_cast<size_t>(node)][static_cast<size_t>(shard)]
      ->submit(payload);
}

void KvService::on_ring_delivery(int node, int shard,
                                 const protocol::Delivery& d, Nanos at) {
  if (down_[static_cast<size_t>(node)] || d.payload.empty()) return;
  if (static_cast<uint8_t>(d.payload[0]) == kLeaseFrame) {
    util::Reader r(d.payload);
    r.u8();
    LeaseId id;
    id.holder = r.u16();
    id.granted_at = r.i64();
    if (!r.ok()) return;
    // Accept only grants from the designated holder of *our current view*
    // of this shard: a deposed holder's in-flight grant (racing the view
    // change that deposed it) is rejected identically everywhere, because
    // the grant is ordered against the configuration change. Grants in a
    // transitional window are rejected too — they were not provably
    // received by every member of the old view, so a minority side (e.g. a
    // transiently expelled ex-holder) could extend a lease the survivors
    // never saw extended, past the bound their successor waits out.
    const auto& view =
        views_[static_cast<size_t>(node)][static_cast<size_t>(shard)];
    if (view.empty() ||
        in_transitional_[static_cast<size_t>(node)][static_cast<size_t>(shard)] ||
        designated_holder(view, shard) != id.holder) {
      ++stats_.grants_rejected;
      return;
    }
    leases_[static_cast<size_t>(node)][static_cast<size_t>(shard)]
        ->on_grant(id, at);
    ++stats_.grants_applied;
    if (lease_obs_) lease_obs_(node, shard, id, at);
    return;
  }
  replicas_[static_cast<size_t>(node)][static_cast<size_t>(shard)]
      ->on_delivery(d);
}

void KvService::on_ring_config(int node, int shard,
                               const protocol::ConfigurationChange& change) {
  if (down_[static_cast<size_t>(node)]) return;
  auto& replica =
      *replicas_[static_cast<size_t>(node)][static_cast<size_t>(shard)];
  replica.on_configuration(change);
  in_transitional_[static_cast<size_t>(node)][static_cast<size_t>(shard)] =
      change.transitional;
  if (change.transitional) return;
  auto members = change.config.members;
  std::sort(members.begin(), members.end());
  views_[static_cast<size_t>(node)][static_cast<size_t>(shard)] = members;
  leases_[static_cast<size_t>(node)][static_cast<size_t>(shard)]
      ->on_config_change(rings_.eq().now());
  const uint64_t gen =
      ++lease_gen_[static_cast<size_t>(node)][static_cast<size_t>(shard)];
  if (designated_holder(members, shard) == static_cast<ProcessId>(node)) {
    submit_grant(node, shard);
    arm_renewal(node, shard, gen);
  }
}

void KvService::submit_grant(int node, int shard) {
  util::Writer w(16);
  w.u8(kLeaseFrame);
  w.u16(static_cast<ProcessId>(node));
  w.i64(rings_.eq().now());
  rings_.submit(node, shard, protocol::Service::kAgreed, std::move(w).take());
  ++stats_.grants_submitted;
}

void KvService::arm_renewal(int node, int shard, uint64_t gen) {
  rings_.eq().schedule_after(kLeaseRenewEvery, [this, node, shard, gen] {
    const auto n = static_cast<size_t>(node);
    const auto s = static_cast<size_t>(shard);
    if (down_[n] || lease_gen_[n][s] != gen) return;
    if (designated_holder(views_[n][s], shard) !=
        static_cast<ProcessId>(node)) {
      return;
    }
    submit_grant(node, shard);
    arm_renewal(node, shard, gen);
  });
}

void KvService::on_crash(int node) {
  down_[static_cast<size_t>(node)] = true;
  for (int shard = 0; shard < cfg_.shards; ++shard) {
    ++lease_gen_[static_cast<size_t>(node)][static_cast<size_t>(shard)];
  }
}

void KvService::on_restart(int node) {
  down_[static_cast<size_t>(node)] = false;
  for (int shard = 0; shard < cfg_.shards; ++shard) {
    views_[static_cast<size_t>(node)][static_cast<size_t>(shard)].clear();
    ++lease_gen_[static_cast<size_t>(node)][static_cast<size_t>(shard)];
  }
  // Fresh machines and replicas (founder=false): all KV state is gone and
  // comes back through the chunked state transfer, like a rebooted daemon.
  // The frontend survives — it is the node's client library, and its
  // pending ops resolve when their commands (re)apply locally.
  setup_node(node, /*founder=*/false);
}

void KvService::set_on_outcome(OutcomeFn fn) {
  outcome_obs_ = std::move(fn);
  for (int node = 0; node < nodes(); ++node) {
    frontends_[static_cast<size_t>(node)]->set_on_outcome(
        [this, node](const Frontend::Outcome& outcome) {
          if (outcome_obs_) outcome_obs_(node, outcome);
        });
  }
}

}  // namespace accelring::kv
