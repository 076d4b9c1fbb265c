// Sharded replicated KV service assembly.
//
// Runs over a `multiring::RingSet`: K shards, shard s ordered by ring s,
// every logical node replicating every shard. One shard is a one-ring set,
// whose merged stream is the ring's own order; Multi-Ring capacity scaling
// carries straight over to K shards.
//
// Per (node, shard) the service owns a KvStateMachine, an rsm::Replica
// driving it (chunked state transfer, compaction, divergence audit), and a
// LeaseTable. Per node it owns a Frontend. The service wires merged
// deliveries and configuration changes from the ring set into the replicas
// and lease tables, runs the lease-acquisition protocol (the designated
// holder of each shard's view multicasts grant frames through the shard's
// ordered stream and renews on a timer), and exposes observer hooks the
// KvOracle and the workload driver tap.
//
// Crash/restart choreography: the fault injector calls rings.crash_node(n)
// then service.on_crash(n); after rings.restart_node(n) (one ring only) it
// calls service.on_restart(n), which stands up fresh machines/replicas/
// lease tables for the node — state comes back via the replica's chunked
// state transfer, exactly like a rebooted daemon.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kv/frontend.hpp"
#include "kv/lease.hpp"
#include "kv/state_machine.hpp"
#include "multiring/ring_set.hpp"
#include "rsm/replica.hpp"
#include "storage/replica_store.hpp"

namespace accelring::kv {

struct ServiceConfig {
  int shards = 1;
  rsm::ReplicaOptions replica;
  /// Keys pre-populated into every founder machine before the run starts
  /// (a warm dataset, as if restored from a common snapshot): make_key(i)
  /// -> make_value(i, preload_value_size) for i in [0, preload_keys).
  uint64_t preload_keys = 0;
  size_t preload_value_size = 64;
  /// Optional durability: when set, every (node, shard) replica runs over a
  /// ReplicaStore from this factory — WAL appends before apply, durable
  /// checkpoints, cold restart from disk before peer state transfer. The
  /// factory is re-invoked on restart (fresh store object = fresh daemon
  /// memory; the disk underneath is whatever the factory hands back).
  using StoreFactory =
      std::function<std::unique_ptr<storage::ReplicaStore>(int node,
                                                           int shard)>;
  StoreFactory store_factory;
};

/// The canonical key/value naming the preloader, workload, and tests share.
[[nodiscard]] std::string make_key(uint64_t id);
[[nodiscard]] std::string make_value(uint64_t id, size_t size);

class KvService {
 public:
  using AppliedFn = std::function<void(int node, int shard,
                                       const AppliedOp& applied, Nanos at)>;
  using LeaseGrantFn =
      std::function<void(int node, int shard, const LeaseId& id, Nanos at)>;
  using OutcomeFn =
      std::function<void(int node, const Frontend::Outcome& outcome)>;

  struct Stats {
    uint64_t grants_submitted = 0;
    uint64_t grants_applied = 0;
    /// Grant frames whose sender was not the designated holder of the
    /// receiver's current view (stale holder racing a view change).
    uint64_t grants_rejected = 0;
  };

  /// K-shard service over a ring set: shard s is ordered by ring s, so
  /// cfg.shards must equal rings.num_rings(). Claims the ring set's
  /// set_on_config slot (deliveries use the accumulating merged observers).
  KvService(multiring::RingSet& rings, const ServiceConfig& cfg);

  /// Fault choreography (see file comment).
  void on_crash(int node);
  void on_restart(int node);

  /// Observers (oracle / workload taps). The applied observer fires before
  /// the frontend resolves the op, so mutation history is recorded before
  /// any dependent outcome is examined.
  void set_on_applied(AppliedFn fn) { applied_obs_ = std::move(fn); }
  void set_on_lease_grant(LeaseGrantFn fn) { lease_obs_ = std::move(fn); }
  void set_on_outcome(OutcomeFn fn);

  [[nodiscard]] Frontend& frontend(int node) { return *frontends_[node]; }
  [[nodiscard]] const KvStateMachine& machine(int node, int shard) const {
    return *machines_[node][shard];
  }
  [[nodiscard]] const rsm::Replica& replica(int node, int shard) const {
    return *replicas_[node][shard];
  }
  [[nodiscard]] const LeaseTable& lease(int node, int shard) const {
    return *leases_[node][shard];
  }
  [[nodiscard]] bool node_up(int node) const {
    return !down_[static_cast<size_t>(node)];
  }
  [[nodiscard]] simnet::EventQueue& eq() { return rings_.eq(); }
  [[nodiscard]] int nodes() const { return rings_.nodes_per_ring(); }
  [[nodiscard]] int shards() const { return cfg_.shards; }
  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Boundary-CRC divergence audits across every replica incarnation this
  /// run, including ones retired by restarts. In a durable run this must
  /// stay 0: recovering from disk must never resurrect a diverged lineage.
  [[nodiscard]] uint64_t total_divergence() const;
  /// The ring set's merged registry, plus the rsm.* counters (see
  /// rsm::add_counters) summed over every replica incarnation when the
  /// ring set has metrics enabled.
  [[nodiscard]] obs::MetricsRegistry merged_metrics() const;

 private:
  void setup_node(int node, bool founder);
  void wire_shard(int node, int shard);
  bool submit_frame(int node, int shard, std::vector<std::byte> payload);
  void on_ring_delivery(int node, int shard, const protocol::Delivery& d,
                        Nanos at);
  void on_ring_config(int node, int shard,
                      const protocol::ConfigurationChange& change);
  void submit_grant(int node, int shard);
  void arm_renewal(int node, int shard, uint64_t gen);
  /// Every replica's stats summed, live and retired by restarts.
  [[nodiscard]] rsm::ReplicaStats replica_totals() const;

  ServiceConfig cfg_;
  multiring::RingSet& rings_;

  std::vector<std::unique_ptr<Frontend>> frontends_;  ///< per node
  /// All remaining state is [node][shard].
  std::vector<std::vector<std::unique_ptr<KvStateMachine>>> machines_;
  std::vector<std::vector<std::unique_ptr<rsm::Replica>>> replicas_;
  std::vector<std::vector<std::unique_ptr<storage::ReplicaStore>>> stores_;
  std::vector<std::vector<std::unique_ptr<LeaseTable>>> leases_;
  std::vector<std::vector<std::vector<ProcessId>>> views_;  ///< sorted
  /// Bumped on every view change / crash / restart; outstanding renewal
  /// timers compare generations and die when stale.
  std::vector<std::vector<uint64_t>> lease_gen_;
  /// True between a transitional configuration and the next regular one.
  /// Grants delivered in that window were not provably received by every
  /// member of the old view (EVS phase-2 leftovers): a lease extension only
  /// some members observe breaks the mutual-exclusion window bound, so
  /// grant frames are rejected while the flag is set.
  std::vector<std::vector<bool>> in_transitional_;
  /// Highest shard version this node has surfaced to observers/clients.
  /// Catch-up replay after a state-transfer adoption re-executes history at
  /// or below this watermark; those applies are reconstruction, not fresh
  /// events, and are not re-surfaced. Reset with the node on restart.
  std::vector<std::vector<uint64_t>> exposed_version_;
  std::vector<bool> down_;
  /// Stats of the replicas restarts retired, summed.
  rsm::ReplicaStats retired_;

  AppliedFn applied_obs_;
  LeaseGrantFn lease_obs_;
  OutcomeFn outcome_obs_;
  Stats stats_;
};

}  // namespace accelring::kv
