// Multi-ring assembly: K independent Accelerated Ring instances, sharded
// traffic, and a deterministic per-node merge of their delivery streams.
//
// The single-ring protocol's aggregate throughput is capped by one token
// rotation and one daemon's CPU. Following Multi-Ring Paxos, this subsystem
// runs K rings side by side: every logical node participates in all K rings
// (one engine per ring, each on its own virtual CPU — a daemon per core),
// every ring has its own switch fabric (its own multicast domain), and a
// static ShardMap routes each ordering key to one ring. A
// DeterministicMerger at every node interleaves the K per-ring total orders
// into one combined total order that is identical at all nodes, so
// applications written against a single ordered stream (groups, RSM) run
// unchanged at K× the capacity.
//
// With K = 1 the merge is the ring's own order, so one ring is simply a
// ring set of one: services, the fault campaigns and the bench points
// (harness::run_point) build on a RingSet at every K.
//
// Liveness of the merge (K > 1): node 0 of each ring arms a periodic skip
// daemon that orders a skip message whenever its ring moved fewer than one
// merge batch in the last interval, so an idle ring cannot stall the
// rotation (merger.hpp explains the rule).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "harness/cluster.hpp"
#include "multiring/merger.hpp"
#include "multiring/shard_map.hpp"

namespace accelring::multiring {

using harness::ImplProfile;
using protocol::Nanos;

struct MultiRingConfig {
  int rings = 2;           ///< K
  int nodes_per_ring = 8;  ///< logical nodes; each runs one engine per ring
  /// When non-empty, every ring's fabric is built from this multi-datacenter
  /// topology (one host per logical node; host count must equal
  /// nodes_per_ring). Empty = the classic single-switch fabric.
  simnet::Topology topology;
  simnet::FabricParams fabric = simnet::FabricParams::ten_gig();
  protocol::ProtocolConfig proto;
  ImplProfile profile = ImplProfile::kLibrary;
  uint32_t merge_batch = 16;               ///< M slots per ring per rotation
  Nanos skip_interval = util::usec(500);   ///< skip-daemon period
  uint64_t seed = 1;
};

class RingSet {
 public:
  /// (node, ring, delivery, client-receipt time) — one merged emission.
  using MergedFn = std::function<void(int node, int ring,
                                      const protocol::Delivery& delivery,
                                      Nanos at)>;
  using ConfigFn = std::function<void(
      int node, int ring, const protocol::ConfigurationChange& change)>;

  explicit RingSet(const MultiRingConfig& cfg);

  /// Start all K rings on pre-agreed static membership and, when K > 1, arm
  /// the skip daemons (the benchmark setup).
  void start_static();

  /// Submit to an explicit ring (callers that already routed).
  void submit(int node, int ring, protocol::Service service,
              std::vector<std::byte> payload);
  /// Submit under an arbitrary 64-bit stream id; the shard map picks the
  /// ring (the id is mixed, so small sequential ids still spread).
  void submit_keyed(int node, uint64_t key, protocol::Service service,
                    std::vector<std::byte> payload);

  void set_on_merged(MergedFn fn) { on_merged_ = std::move(fn); }
  /// Additional merged-stream observers, invoked before the primary callback
  /// on every merged emission (accumulate; used by the check oracles).
  void add_on_merged(MergedFn fn) {
    merged_observers_.push_back(std::move(fn));
  }
  void set_on_config(ConfigFn fn);

  /// Fault injection: take logical node `node` down in every ring at once
  /// (one machine hosting K engines loses power).
  void crash_node(int node);
  /// Cold-restart a crashed node (SimCluster::restart_node). One ring only,
  /// so on a K-ring set a crashed node stays down: see the definition.
  void restart_node(int node);
  [[nodiscard]] bool node_down(int node) const {
    return clusters_.front()->net().host_down(node);
  }

  void run_until(Nanos deadline) { eq_.run_until(deadline); }

  [[nodiscard]] simnet::EventQueue& eq() { return eq_; }
  [[nodiscard]] const ShardMap& shards() const { return shards_; }
  [[nodiscard]] harness::SimCluster& ring(int r) { return *clusters_[r]; }
  [[nodiscard]] DeterministicMerger& merger(int node) {
    return *mergers_[node];
  }
  [[nodiscard]] int num_rings() const { return cfg_.rings; }
  [[nodiscard]] int nodes_per_ring() const { return cfg_.nodes_per_ring; }
  [[nodiscard]] const MultiRingConfig& config() const { return cfg_; }

  /// Per-ring cluster counters (ClusterStats per ring, in ring order).
  [[nodiscard]] std::vector<harness::ClusterStats> ring_stats() const;

  /// Attach metrics to every ring's engines and every node's merger (see
  /// SimCluster::enable_metrics; recording never perturbs the run). The
  /// counters count from each component's construction: enable before the
  /// run starts.
  void enable_metrics();
  [[nodiscard]] bool metrics_enabled() const { return !node_metrics_.empty(); }
  /// Everything merged: all rings' merged registries plus all nodes' merger
  /// registries and MergerStats, in one aggregate.
  [[nodiscard]] obs::MetricsRegistry merged_metrics() const;

 private:
  void skip_tick(int ring);

  MultiRingConfig cfg_;
  simnet::EventQueue eq_;
  ShardMap shards_;
  std::vector<std::unique_ptr<harness::SimCluster>> clusters_;   // per ring
  std::vector<std::unique_ptr<DeterministicMerger>> mergers_;    // per node
  /// Per-node merger registries; empty until enable_metrics().
  std::vector<std::unique_ptr<obs::MetricsRegistry>> node_metrics_;
  std::vector<uint64_t> ordered_at_probe_;  ///< per ring: node-0 deliveries
  std::vector<uint64_t> skip_baseline_;     ///< ... at the last skip tick
  Nanos push_at_ = 0;  ///< receipt time of the delivery being merged
  MergedFn on_merged_;
  std::vector<MergedFn> merged_observers_;
};

}  // namespace accelring::multiring
