// Multi-ring assembly: K independent Accelerated Ring instances, sharded
// traffic, and a deterministic per-node merge of their delivery streams.
//
// The single-ring protocol's aggregate throughput is capped by one token
// rotation and one daemon's CPU. Following Multi-Ring Paxos, this subsystem
// runs K rings side by side: every logical node participates in all K rings
// (one engine per ring, each on its own virtual CPU — a daemon per core),
// every ring has its own switch fabric (its own multicast domain), and a
// versioned ShardMap routes each ordering key to one ring. A
// DeterministicMerger at every node interleaves the K per-ring total orders
// into one combined total order that is identical at all nodes, so
// applications written against a single ordered stream (groups, RSM) run
// unchanged at K× the capacity.
//
// Liveness of the merge: node 0 of each ring arms a periodic skip daemon
// that orders a skip message whenever its ring moved fewer than one merge
// batch in the last interval, so an idle ring cannot stall the rotation
// (merger.hpp explains the rule).
//
// Elasticity: the physical ring set K is fixed, but hash-space ownership
// migrates live (migration.hpp). start_migration() stages a MigrationPlan on
// every node's ShardRouter and runs the controller: freeze markers on each
// source ring, then — once every live router merged the freeze and the
// source's submitted-vs-merged counters agree (nothing in flight) — a drain
// marker per source, then activate markers on the destinations once the
// controller merged all drains. Keyed submissions for moving ranges are held
// between freeze and activation and flushed to the destination, so no message
// is ever ordered on the wrong side of its handoff.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "harness/cluster.hpp"
#include "multiring/merger.hpp"
#include "multiring/migration.hpp"
#include "multiring/shard_map.hpp"
#include "multiring/shard_router.hpp"

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
  /// Rings initially owning hash space; 0 = all. Rings beyond this count
  /// still run (their skip daemons keep the merge rotating) but carry no
  /// keyed traffic until a migration moves ranges in — the "ring add under
  /// load" setup.
  int active_rings = 0;
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

  /// Start all K rings on pre-agreed static membership and arm the skip
  /// daemons (the benchmark setup).
  void start_static();

  /// Submit to an explicit ring (callers that already routed).
  void submit(int node, int ring, protocol::Service service,
              std::vector<std::byte> payload);
  /// Submit under an arbitrary 64-bit stream id; the submitting node's
  /// ShardRouter picks the ring (the id is mixed, so small sequential ids
  /// still spread). During a migration, submissions for moving ranges are
  /// held from freeze to activation and then flushed to the destination.
  void submit_keyed(int node, uint64_t key, protocol::Service service,
                    std::vector<std::byte> payload);
  /// Submit under a name (group name / sender stream), sharded by hash.
  void submit_named(int node, std::string_view name, protocol::Service service,
                    std::vector<std::byte> payload);

  /// Begin a live migration (must have been planned against the current
  /// canonical map). Returns false — and changes nothing — if a migration is
  /// already in flight or the plan is empty/stale. Progress is driven by
  /// ordered markers plus a periodic controller tick; completion is visible
  /// via completed_migrations() and shards().version().
  bool start_migration(const MigrationPlan& plan);
  [[nodiscard]] bool migration_idle() const { return !plan_.has_value(); }
  [[nodiscard]] uint64_t completed_migrations() const {
    return completed_migrations_;
  }
  /// Keyed submissions currently held (all nodes) awaiting activation.
  [[nodiscard]] size_t held_messages() const;

  /// Test hook (check campaigns): on `node`, misroute one moving-key message
  /// to the *source* ring after its destination activated — the classic
  /// stale-map-epoch handoff bug the MergedOracle audit must catch.
  void inject_stale_flush(int node) { stale_flush_node_ = node; }

  void set_on_merged(MergedFn fn) { on_merged_ = std::move(fn); }
  /// Additional merged-stream observers, invoked before the primary callback
  /// on every merged emission (accumulate; used by the check oracles). The
  /// observers also see handoff markers; the primary callback — the
  /// application — does not (markers are protocol-internal, like skips).
  void add_on_merged(MergedFn fn) {
    merged_observers_.push_back(std::move(fn));
  }
  void set_on_config(ConfigFn fn);

  /// Fault injection: take logical node `node` down in every ring at once
  /// (one machine hosting K engines loses power). The node stays down.
  void crash_node(int node);
  [[nodiscard]] bool node_down(int node) const {
    return clusters_.front()->net().host_down(node);
  }

  void run_until(Nanos deadline) { eq_.run_until(deadline); }

  [[nodiscard]] simnet::EventQueue& eq() { return eq_; }
  /// The canonical shard map: advances when a migration completes.
  [[nodiscard]] const ShardMap& shards() const { return shards_; }
  [[nodiscard]] const ShardRouter& router(int node) const {
    return *routers_[static_cast<size_t>(node)];
  }
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
  struct Held {
    uint64_t key = 0;  ///< mixed
    protocol::Service service = protocol::Service::kAgreed;
    std::vector<std::byte> payload;
  };

  void skip_tick(int ring);
  void migration_tick();
  void flush_held(int node);
  void submit_marker(int ring, const MigrationMarker& marker);
  [[nodiscard]] int lowest_live_node() const;

  MultiRingConfig cfg_;
  simnet::EventQueue eq_;
  ShardMap shards_;
  std::vector<std::unique_ptr<harness::SimCluster>> clusters_;   // per ring
  std::vector<std::unique_ptr<DeterministicMerger>> mergers_;    // per node
  std::vector<std::unique_ptr<ShardRouter>> routers_;            // per node
  std::vector<std::vector<Held>> held_;                          // per node
  /// Per-node merger registries; empty until enable_metrics().
  std::vector<std::unique_ptr<obs::MetricsRegistry>> node_metrics_;
  std::vector<uint64_t> ordered_at_probe_;  ///< per ring: node-0 deliveries
  std::vector<uint64_t> skip_baseline_;     ///< ... at the last skip tick
  Nanos push_at_ = 0;  ///< receipt time of the delivery being merged
  MergedFn on_merged_;
  std::vector<MergedFn> merged_observers_;

  // Migration controller state.
  std::optional<MigrationPlan> plan_;  ///< in flight
  std::vector<char> drain_submitted_;  ///< per source ring
  bool activates_submitted_ = false;
  uint64_t completed_migrations_ = 0;
  std::vector<uint64_t> submitted_data_;  ///< per ring, via submit()
  std::vector<std::vector<uint64_t>> merged_data_;  ///< [node][ring], no markers
  int stale_flush_node_ = -1;  ///< inject_stale_flush target, -1 = off
  bool stale_flush_done_ = false;
};

}  // namespace accelring::multiring
