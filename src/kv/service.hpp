// Sharded replicated KV service assembly.
//
// Glues the pieces into a running service over either substrate:
//
//  * one `SimCluster` — a single shard on a single ring (the campaign and
//    unit-test setup, where crash/restart faults are available), or
//  * a `RingSet`  — K shards, shard s ordered by ring s, every logical node
//    replicating every shard (the benchmark setup; Multi-Ring capacity
//    scaling carries straight over to the KV service).
//
// Per (node, shard) the service owns a KvStateMachine, an rsm::Replica
// driving it (chunked state transfer, compaction, divergence audit), and a
// LeaseTable. Per node it owns a Frontend. The service wires deliveries and
// configuration changes from the substrate into the replicas and lease
// tables, runs the lease-acquisition protocol (the designated holder of each
// shard's view multicasts grant frames through the shard's ordered stream
// and renews on a timer), and exposes observer hooks the KvOracle and the
// workload driver tap.
//
// Crash/restart choreography (SimCluster substrate): the fault injector
// calls cluster.crash_node(n) then service.on_crash(n); after
// cluster.restart_node(n) it calls service.on_restart(n), which stands up
// fresh machines/replicas/lease tables for the node — state comes back via
// the replica's chunked state transfer, exactly like a rebooted daemon.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/cluster.hpp"
#include "kv/frontend.hpp"
#include "kv/lease.hpp"
#include "kv/state_machine.hpp"
#include "multiring/ring_set.hpp"
#include "rsm/replica.hpp"
#include "storage/replica_store.hpp"

namespace accelring::kv {

struct ServiceConfig {
  int shards = 1;
  LeaseConfig lease;
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
    /// divergence_detected carried over from replicas retired by restarts
    /// (see total_divergence()).
    uint64_t divergence_carried = 0;
  };

  /// Single-shard service over one cluster. Requires cfg.shards == 1.
  KvService(harness::SimCluster& cluster, const ServiceConfig& cfg);

  /// K-shard service over a ring set: shard s is ordered by ring s, so
  /// cfg.shards must equal rings.num_rings(). Claims the ring set's
  /// set_on_config slot (deliveries use the accumulating merged observers).
  KvService(multiring::RingSet& rings, const ServiceConfig& cfg);

  /// Fault choreography (SimCluster substrate; see file comment).
  void on_crash(int node);
  void on_restart(int node);

  /// Observers (oracle / workload taps). The applied observer fires before
  /// the frontend resolves the op, so mutation history is recorded before
  /// any dependent outcome is examined.
  void set_on_applied(AppliedFn fn) { applied_obs_ = std::move(fn); }
  void set_on_lease_grant(LeaseGrantFn fn) { lease_obs_ = std::move(fn); }
  void set_on_outcome(OutcomeFn fn);

  /// Bind every replica's stats into the substrate's per-node metrics
  /// registries (component "rsm"). Requires metrics enabled on the
  /// substrate first; restarted nodes are re-bound automatically.
  void bind_metrics();

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
  [[nodiscard]] simnet::EventQueue& eq() { return *eq_; }
  [[nodiscard]] int nodes() const { return nodes_; }
  [[nodiscard]] int shards() const { return cfg_.shards; }
  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Boundary-CRC divergence audits across every replica incarnation this
  /// run, including ones retired by restarts. In a durable run this must
  /// stay 0: recovering from disk must never resurrect a diverged lineage.
  [[nodiscard]] uint64_t total_divergence() const;

 private:
  void init();
  void setup_node(int node, bool founder);
  void wire_shard(int node, int shard);
  bool submit_frame(int node, int shard, std::vector<std::byte> payload);
  void on_ring_delivery(int node, int shard, const protocol::Delivery& d,
                        Nanos at);
  void on_ring_config(int node, int shard,
                      const protocol::ConfigurationChange& change);
  void submit_grant(int node, int shard);
  void arm_renewal(int node, int shard, uint64_t gen);
  void bind_node_metrics(int node);

  ServiceConfig cfg_;
  harness::SimCluster* cluster_ = nullptr;  ///< single-shard substrate
  multiring::RingSet* rings_ = nullptr;     ///< K-shard substrate
  simnet::EventQueue* eq_ = nullptr;
  int nodes_ = 0;

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
  bool metrics_bound_ = false;

  AppliedFn applied_obs_;
  LeaseGrantFn lease_obs_;
  OutcomeFn outcome_obs_;
  Stats stats_;
};

}  // namespace accelring::kv
