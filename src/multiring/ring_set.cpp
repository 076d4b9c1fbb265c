#include "multiring/ring_set.hpp"

#include <cassert>

namespace accelring::multiring {

RingSet::RingSet(const MultiRingConfig& cfg)
    : cfg_(cfg), shards_(cfg.rings) {
  assert(cfg_.rings >= 1 && cfg_.nodes_per_ring >= 2);
  ordered_at_probe_.assign(static_cast<size_t>(cfg_.rings), 0);
  skip_baseline_.assign(static_cast<size_t>(cfg_.rings), 0);

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
  for (int n = 0; n < cfg_.nodes_per_ring; ++n) {
    mergers_.push_back(
        std::make_unique<DeterministicMerger>(cfg_.rings, cfg_.merge_batch));
    mergers_.back()->set_on_merged(
        [this, n](int ring, const protocol::Delivery& d) {
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
  // One ring needs no skips: its rotation always returns to ring 0, so the
  // merger never waits on another ring.
  if (cfg_.rings == 1) return;
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
    // submits). A skip pads an idle ring; it must not wake its held token.
    harness::SimCluster& cluster = *clusters_[static_cast<size_t>(ring)];
    for (int n = 0; n < cfg_.nodes_per_ring; ++n) {
      if (cluster.net().host_down(n)) continue;
      cluster.submit(n, protocol::Service::kAgreed,
                     make_skip(cfg_.merge_batch), /*wake=*/false);
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

void RingSet::restart_node(int node) {
  // A restarted node's merger would restart its rotation out of step with
  // the other nodes' mergers, so only a one-ring set, whose merge is the
  // ring's own order, can restart a node.
  assert(cfg_.rings == 1);
  clusters_.front()->restart_node(node);
}

void RingSet::submit(int node, int ring, protocol::Service service,
                     std::vector<std::byte> payload) {
  clusters_[static_cast<size_t>(ring)]->submit(node, service,
                                               std::move(payload));
}

void RingSet::submit_keyed(int node, uint64_t key, protocol::Service service,
                           std::vector<std::byte> payload) {
  submit(node, shards_.ring_of_key(mix64(key)), service, std::move(payload));
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
