#include "multiring/ring_set.hpp"

#include <algorithm>
#include <cassert>

namespace accelring::multiring {

namespace {

/// Poll period of the migration controller.
constexpr Nanos kMigrationTick = util::usec(300);

}  // namespace

RingSet::RingSet(const MultiRingConfig& cfg)
    : cfg_(cfg),
      shards_(cfg.rings, ShardMap::kDefaultVnodes,
              cfg.active_rings > 0 ? cfg.active_rings : cfg.rings) {
  assert(cfg_.rings >= 1 && cfg_.nodes_per_ring >= 2);
  ordered_at_probe_.assign(static_cast<size_t>(cfg_.rings), 0);
  skip_baseline_.assign(static_cast<size_t>(cfg_.rings), 0);
  submitted_data_.assign(static_cast<size_t>(cfg_.rings), 0);
  drain_submitted_.assign(static_cast<size_t>(cfg_.rings), 0);

  assert(cfg_.topology.hosts.empty() ||
         cfg_.topology.num_hosts() == cfg_.nodes_per_ring);
  const simnet::Topology topo =
      cfg_.topology.hosts.empty()
          ? simnet::Topology::single_dc(cfg_.nodes_per_ring)
          : cfg_.topology;
  for (int r = 0; r < cfg_.rings; ++r) {
    // Each ring gets its own switch fabric (own multicast domain) but shares
    // the one event queue, so all rings advance on one simulated clock.
    // Seeds are ring-distinct so loss draws differ across rings.
    const uint64_t ring_seed = cfg_.seed + static_cast<uint64_t>(r) * 7919;
    clusters_.push_back(std::make_unique<harness::SimCluster>(
        eq_, topo, cfg_.fabric, cfg_.proto, cfg_.profile, ring_seed));
  }
  held_.resize(static_cast<size_t>(cfg_.nodes_per_ring));
  merged_data_.assign(static_cast<size_t>(cfg_.nodes_per_ring),
                      std::vector<uint64_t>(static_cast<size_t>(cfg_.rings)));
  for (int n = 0; n < cfg_.nodes_per_ring; ++n) {
    routers_.push_back(std::make_unique<ShardRouter>(shards_));
    mergers_.push_back(
        std::make_unique<DeterministicMerger>(cfg_.rings, cfg_.merge_batch));
    mergers_.back()->set_on_merged(
        [this, n](int ring, const protocol::Delivery& d) {
          if (const auto marker = decode_marker(d.payload)) {
            // Handoff markers advance this node's router at its own merged
            // position; they reach the check observers (the oracles audit
            // them) but not the application callback — like skip messages,
            // they are protocol-internal.
            const ShardRouter::MarkerEffect effect =
                routers_[static_cast<size_t>(n)]->on_marker(*marker);
            for (const MergedFn& fn : merged_observers_) {
              fn(n, ring, d, push_at_);
            }
            if (effect.activated) flush_held(n);
            return;
          }
          ++merged_data_[static_cast<size_t>(n)][static_cast<size_t>(ring)];
          for (const MergedFn& fn : merged_observers_) fn(n, ring, d, push_at_);
          if (on_merged_) on_merged_(n, ring, d, push_at_);
        });
  }
  for (int r = 0; r < cfg_.rings; ++r) {
    clusters_[static_cast<size_t>(r)]->set_on_deliver(
        [this, r](int node, const protocol::Delivery& d, Nanos at) {
          if (node == 0) ++ordered_at_probe_[static_cast<size_t>(r)];
          push_at_ = at;
          mergers_[static_cast<size_t>(node)]->push(r, d);
        });
  }
}

void RingSet::set_on_config(ConfigFn fn) {
  for (int r = 0; r < cfg_.rings; ++r) {
    clusters_[static_cast<size_t>(r)]->set_on_config(
        [fn, r](int node, const protocol::ConfigurationChange& change) {
          fn(node, r, change);
        });
  }
}

void RingSet::start_static() {
  for (auto& cluster : clusters_) cluster->start_static();
  for (int r = 0; r < cfg_.rings; ++r) {
    // Offset the first ticks so K skip daemons do not fire in lockstep.
    eq_.schedule_after(
        cfg_.skip_interval + cfg_.skip_interval * r / cfg_.rings,
        [this, r] { skip_tick(r); });
  }
}

void RingSet::skip_tick(int ring) {
  const uint64_t ordered = ordered_at_probe_[static_cast<size_t>(ring)];
  if (ordered - skip_baseline_[static_cast<size_t>(ring)] < cfg_.merge_batch) {
    // The ring moved less than one merge batch since the last tick: order a
    // skip so the merger's rotation passes this ring without waiting. The
    // lowest live node arms the skip; if node 0 crashed, its successor takes
    // over (every node runs the same deterministic rule, so exactly one
    // submits).
    harness::SimCluster& cluster = *clusters_[static_cast<size_t>(ring)];
    for (int n = 0; n < cfg_.nodes_per_ring; ++n) {
      if (cluster.net().host_down(n)) continue;
      cluster.submit(n, protocol::Service::kAgreed,
                     make_skip(cfg_.merge_batch));
      break;
    }
  }
  skip_baseline_[static_cast<size_t>(ring)] = ordered;
  eq_.schedule_after(cfg_.skip_interval, [this, ring] { skip_tick(ring); });
}

void RingSet::crash_node(int node) {
  assert(node >= 0 && node < cfg_.nodes_per_ring);
  // One machine hosts this node's K engines: all of them go silent at once.
  for (auto& cluster : clusters_) cluster->crash_node(node);
}

void RingSet::submit(int node, int ring, protocol::Service service,
                     std::vector<std::byte> payload) {
  ++submitted_data_[static_cast<size_t>(ring)];
  clusters_[static_cast<size_t>(ring)]->submit(node, service,
                                               std::move(payload));
}

void RingSet::submit_keyed(int node, uint64_t key, protocol::Service service,
                           std::vector<std::byte> payload) {
  const uint64_t mixed = mix64(key);
  const size_t ni = static_cast<size_t>(node);
  const ShardRouter::Decision dec = routers_[ni]->route_key(mixed);
  if (dec.hold) {
    held_[ni].push_back(Held{mixed, service, std::move(payload)});
    return;
  }
  int ring = dec.ring;
  if (node == stale_flush_node_ && !stale_flush_done_ && plan_.has_value()) {
    // Injected-bug fallback: if nothing was held at flush time, misroute the
    // next post-activate moving-key submission to the old owner instead.
    if (const MigrationMove* mv = plan_->move_of(mixed)) {
      if (ring == mv->dst && mv->dst != mv->src) {
        ring = mv->src;
        stale_flush_done_ = true;
      }
    }
  }
  submit(node, ring, service, std::move(payload));
}

void RingSet::submit_named(int node, std::string_view name,
                           protocol::Service service,
                           std::vector<std::byte> payload) {
  submit_keyed(node, fnv1a(name), service, std::move(payload));
}

int RingSet::lowest_live_node() const {
  for (int n = 0; n < cfg_.nodes_per_ring; ++n) {
    if (!node_down(n)) return n;
  }
  return 0;
}

void RingSet::submit_marker(int ring, const MigrationMarker& marker) {
  // Like the skip daemon: the lowest live node submits, so a controller node
  // crash does not strand the protocol on a dead submitter.
  harness::SimCluster& cluster = *clusters_[static_cast<size_t>(ring)];
  for (int n = 0; n < cfg_.nodes_per_ring; ++n) {
    if (cluster.net().host_down(n)) continue;
    cluster.submit(n, protocol::Service::kAgreed, make_marker(marker));
    return;
  }
}

bool RingSet::start_migration(const MigrationPlan& plan) {
  if (plan_.has_value() || plan.empty()) return false;
  if (plan.from_version != shards_.version()) return false;
  plan_ = plan;
  for (int n = 0; n < cfg_.nodes_per_ring; ++n) {
    ShardRouter& router = *routers_[static_cast<size_t>(n)];
    // A node that crashed mid-way through an earlier migration may hold a
    // stale plan or an old map version; it never routes again, so skip it.
    if (router.migrating() || router.version() != plan.from_version) continue;
    router.stage_plan(plan);
  }
  std::fill(drain_submitted_.begin(), drain_submitted_.end(), char{0});
  activates_submitted_ = false;
  for (const int src : plan_->sources()) {
    MigrationMarker m;
    m.kind = MarkerKind::kFreeze;
    m.version = plan_->to_version;
    m.ring = src;
    m.moves = plan_->moves;
    submit_marker(src, m);
  }
  eq_.schedule_after(kMigrationTick, [this] { migration_tick(); });
  return true;
}

void RingSet::migration_tick() {
  if (!plan_.has_value()) return;
  const int ctrl = lowest_live_node();
  const size_t ctrl_i = static_cast<size_t>(ctrl);

  // Freeze -> drain, per source ring: every live node's router must have
  // merged the freeze (no node can still be routing moving keys to the
  // source) and the source's lifetime submitted-vs-merged counters must
  // agree at the controller (no data message still in flight toward the
  // source's ordered stream). Only then is it safe to close the source side:
  // the drain marker is ordered after every moving-key message.
  for (const int src : plan_->sources()) {
    const size_t si = static_cast<size_t>(src);
    if (drain_submitted_[si] != 0) continue;
    bool frozen_everywhere = true;
    for (int n = 0; n < cfg_.nodes_per_ring && frozen_everywhere; ++n) {
      if (node_down(n)) continue;
      const ShardRouter& router = *routers_[static_cast<size_t>(n)];
      frozen_everywhere = router.migrating() && router.all_frozen();
    }
    if (!frozen_everywhere) continue;
    if (submitted_data_[si] != merged_data_[ctrl_i][si]) continue;
    MigrationMarker m;
    m.kind = MarkerKind::kDrain;
    m.version = plan_->to_version;
    m.ring = src;
    submit_marker(src, m);
    drain_submitted_[si] = 1;
  }

  // Drain -> activate: once every live node merged every drain, the
  // activates are ordered after all of them everywhere. The controller's
  // own merged stream is not enough: a node that spent a partition in
  // another view fed its merger different ring streams, so its interleaving
  // differs, and a drain can still sit queued behind its merge cursor when
  // the activate on another ring reaches it.
  bool activate = !activates_submitted_;
  for (int n = 0; n < cfg_.nodes_per_ring && activate; ++n) {
    if (node_down(n)) continue;
    activate = routers_[static_cast<size_t>(n)]->all_drained();
  }
  if (activate) {
    for (const int dst : plan_->dests()) {
      MigrationMarker m;
      m.kind = MarkerKind::kActivate;
      m.version = plan_->to_version;
      m.ring = dst;
      submit_marker(dst, m);
    }
    activates_submitted_ = true;
  }

  // Completion: every live router applied the plan (merged all activates).
  bool done = true;
  for (int n = 0; n < cfg_.nodes_per_ring && done; ++n) {
    if (node_down(n)) continue;
    done = routers_[static_cast<size_t>(n)]->version() == plan_->to_version;
  }
  if (done) {
    shards_.apply(*plan_);
    plan_.reset();
    ++completed_migrations_;
    return;  // stop ticking; the next start_migration re-arms
  }
  eq_.schedule_after(kMigrationTick, [this] { migration_tick(); });
}

void RingSet::flush_held(int node) {
  const size_t ni = static_cast<size_t>(node);
  std::vector<Held>& held = held_[ni];
  if (held.empty()) return;
  std::vector<Held> keep;
  std::vector<Held> flush;
  for (Held& h : held) {
    if (routers_[ni]->route_key(h.key).hold) {
      keep.push_back(std::move(h));
    } else {
      flush.push_back(std::move(h));
    }
  }
  held = std::move(keep);
  for (Held& h : flush) {
    int ring = routers_[ni]->route_key(h.key).ring;
    if (node == stale_flush_node_ && !stale_flush_done_ &&
        plan_.has_value()) {
      // Injected bug (test hook): flush one held message with the *old* map
      // epoch — it lands on the source ring after the drain marker, exactly
      // the off-by-one handoff the MergedOracle audit exists to catch.
      if (const MigrationMove* mv = plan_->move_of(h.key)) {
        if (mv->src != ring) {
          ring = mv->src;
          stale_flush_done_ = true;
        }
      }
    }
    submit(node, ring, h.service, std::move(h.payload));
  }
}

size_t RingSet::held_messages() const {
  size_t total = 0;
  for (const auto& h : held_) total += h.size();
  return total;
}

void RingSet::enable_metrics() {
  if (metrics_enabled()) return;
  for (auto& cluster : clusters_) cluster->enable_metrics();
  node_metrics_.reserve(mergers_.size());
  for (auto& merger : mergers_) {
    node_metrics_.push_back(std::make_unique<obs::MetricsRegistry>());
    merger->set_metrics(MergerMetrics::bind(*node_metrics_.back()),
                        [this] { return eq_.now(); });
  }
}

obs::MetricsRegistry RingSet::merged_metrics() const {
  obs::MetricsRegistry merged;
  for (const auto& cluster : clusters_) {
    if (cluster->metrics_enabled()) merged.merge_from(cluster->merged_metrics());
  }
  for (size_t node = 0; node < node_metrics_.size(); ++node) {
    merged.merge_from(*node_metrics_[node]);
    add_counters(merged, mergers_[node]->stats());
  }
  return merged;
}

std::vector<harness::ClusterStats> RingSet::ring_stats() const {
  std::vector<harness::ClusterStats> out;
  out.reserve(clusters_.size());
  for (const auto& cluster : clusters_) out.push_back(cluster->stats());
  return out;
}

}  // namespace accelring::multiring
