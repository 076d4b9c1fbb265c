// Simulated cluster assembly: N nodes, one switch, one protocol engine per
// node, wired per one of the paper's three implementation profiles.
//
// The profiles (paper §I, §IV) differ in where the protocol engine runs and
// what each message crosses on its way to the application:
//
//  * Library — the engine is embedded in the application process. Delivery
//    is an in-process callback; messages carry no extra header.
//  * Daemon  — the engine runs in a daemon; one sending and one receiving
//    client per node talk to it over IPC. Injection and delivery each cost
//    daemon CPU (the IPC read/write) and IPC latency.
//  * Spread  — the daemon profile plus production-system overheads: large
//    message headers (group and sender names) and group-routing work on
//    every delivery. Uses the conservative token-priority method, as shipped
//    in Spread 4.4.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "storage/epoch_store.hpp"
#include "storage/sim_disk.hpp"
#include "protocol/engine.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/network.hpp"
#include "simnet/process.hpp"
#include "transport/sim_host.hpp"
#include "util/trace.hpp"

namespace accelring::harness {

using protocol::Nanos;

enum class ImplProfile { kLibrary, kDaemon, kSpread };

[[nodiscard]] constexpr const char* profile_name(ImplProfile p) {
  switch (p) {
    case ImplProfile::kLibrary:
      return "library";
    case ImplProfile::kDaemon:
      return "daemon";
    case ImplProfile::kSpread:
      return "spread";
  }
  return "?";
}

/// Per-profile cost model (virtual CPU / latency constants). The values are
/// calibrated so the three profiles land near the paper's measured maximum
/// throughputs on the simulated 10-gigabit fabric; see DESIGN.md §1.
struct NodeSetup {
  simnet::ProcessCosts proc_costs;
  transport::HostCosts host_costs;
  uint16_t header_pad = 0;        ///< extra wire bytes per data message
  Nanos client_inject_cost = 0;   ///< daemon CPU to read one client message
  Nanos client_deliver_cost = 0;  ///< daemon CPU to write one delivery
  double ipc_per_byte = 0;        ///< ns/byte for the IPC copy each way
  Nanos group_routing_cost = 0;   ///< Spread group-name analysis per delivery
  Nanos ipc_latency = 0;          ///< one-way client<->daemon latency

  [[nodiscard]] static NodeSetup for_profile(ImplProfile profile);
};

/// One simulated node: process, host adapter, engine, flight recorder.
struct SimNode {
  std::unique_ptr<simnet::Process> process;
  std::unique_ptr<transport::SimHost> host;
  /// This incarnation's epoch store (daemon memory) over the node's disk;
  /// declared before `engine`, which holds a pointer to it.
  std::unique_ptr<storage::EpochStore> epochs;
  std::unique_ptr<protocol::Engine> engine;
  std::unique_ptr<util::Tracer> tracer;
  /// Present only after SimCluster::enable_metrics() (null otherwise).
  std::unique_ptr<obs::MetricsRegistry> metrics;
  uint64_t delivered = 0;  ///< application-level deliveries at this node
};

/// Everything tests, benches, and the multi-ring assembly want to know about
/// a cluster after (or during) a run, in one struct instead of a scatter of
/// per-node getters.
struct ClusterStats {
  struct NodeStats {
    protocol::EngineStats engine;
    uint64_t delivered = 0;     ///< application deliveries observed
    uint64_t socket_drops = 0;
    Nanos busy_time = 0;        ///< virtual CPU time consumed
    double cpu_utilization = 0; ///< busy_time / elapsed simulated time
  };
  std::vector<NodeStats> nodes;
  simnet::NetworkStats net;
  Nanos now = 0;  ///< simulated time the snapshot was taken

  [[nodiscard]] uint64_t delivered_total() const {
    uint64_t n = 0;
    for (const auto& s : nodes) n += s.delivered;
    return n;
  }
  [[nodiscard]] uint64_t retransmits() const {
    uint64_t n = 0;
    for (const auto& s : nodes) n += s.engine.retransmitted;
    return n;
  }
  [[nodiscard]] uint64_t rtr_requested() const {
    uint64_t n = 0;
    for (const auto& s : nodes) n += s.engine.rtr_requested;
    return n;
  }
  [[nodiscard]] uint64_t token_retransmits() const {
    uint64_t n = 0;
    for (const auto& s : nodes) n += s.engine.token_retransmits;
    return n;
  }
  [[nodiscard]] uint64_t submit_rejected() const {
    uint64_t n = 0;
    for (const auto& s : nodes) n += s.engine.submit_rejected;
    return n;
  }
  [[nodiscard]] uint64_t quarantines() const {
    uint64_t n = 0;
    for (const auto& s : nodes) n += s.engine.quarantines;
    return n;
  }
  [[nodiscard]] uint64_t readmits() const {
    uint64_t n = 0;
    for (const auto& s : nodes) n += s.engine.readmits;
    return n;
  }
  [[nodiscard]] uint64_t socket_drops() const {
    uint64_t n = 0;
    for (const auto& s : nodes) n += s.socket_drops;
    return n;
  }
  [[nodiscard]] double max_cpu_utilization() const {
    double m = 0;
    for (const auto& s : nodes) m = s.cpu_utilization > m ? s.cpu_utilization : m;
    return m;
  }
};

class SimCluster {
 public:
  /// Called on every application-level delivery: receiving node, the
  /// delivery, and the time the receiving *client* sees the message.
  using DeliverFn =
      std::function<void(int node, const protocol::Delivery&, Nanos at)>;
  using ConfigFn =
      std::function<void(int node, const protocol::ConfigurationChange&)>;

  SimCluster(int num_nodes, simnet::FabricParams fabric,
             protocol::ProtocolConfig cfg, ImplProfile profile,
             uint64_t seed = 1);

  /// Multi-datacenter cluster: one node per topology host, wired through the
  /// topology's WAN links, with each host's CPU multiplier applied to its
  /// Process at construction (and re-applied on restart). A single_dc
  /// topology is bit-identical to the num_nodes constructor.
  SimCluster(const simnet::Topology& topo, simnet::FabricParams fabric,
             protocol::ProtocolConfig cfg, ImplProfile profile,
             uint64_t seed = 1);

  /// Multi-ring assembly: share an external event queue so several clusters
  /// (one per ring, each with its own switch fabric) advance on one simulated
  /// clock. The queue must outlive the cluster.
  SimCluster(simnet::EventQueue& eq, const simnet::Topology& topo,
             simnet::FabricParams fabric, protocol::ProtocolConfig cfg,
             ImplProfile profile, uint64_t seed = 1);

  /// All nodes start on one pre-agreed ring (the benchmark setup).
  void start_static();
  /// All nodes run the membership algorithm from scratch.
  void start_discovery();

  /// Application-level send from `node` at the current simulation time:
  /// models the full client path of the profile (IPC hop for daemon/Spread,
  /// direct submit for library). Payload is delivered as-is.
  void submit(int node, protocol::Service service,
              std::vector<std::byte> payload);

  void set_on_deliver(DeliverFn fn) { on_deliver_ = std::move(fn); }
  void set_on_config(ConfigFn fn) { on_config_ = std::move(fn); }

  /// Additional observers, invoked *before* the primary callback on every
  /// delivery / configuration change. Unlike set_on_deliver/set_on_config
  /// these accumulate, so a safety oracle can watch a cluster without
  /// stealing the callback a test or the multi-ring merger installed.
  void add_on_deliver(DeliverFn fn) {
    deliver_observers_.push_back(std::move(fn));
  }
  void add_on_config(ConfigFn fn) {
    config_observers_.push_back(std::move(fn));
  }

  /// Fault injection: take `node` down (it neither sends nor receives, and
  /// stays down until restarted). Idempotent.
  void crash_node(int node);

  /// Replace a crashed node with a fresh process/engine at the same index
  /// and start it on the membership algorithm (a cold restart: all ordering
  /// and membership state is lost, as for a real rebooted daemon). The old
  /// node's objects are retired, muted, and kept alive so simulator events
  /// already queued against them resolve harmlessly. Requires crash_node()
  /// first.
  void restart_node(int node);

  /// Restarts performed on `node` so far (0 = still the original engine).
  [[nodiscard]] int restarts(int node) const {
    return restarts_[static_cast<size_t>(node)];
  }

  [[nodiscard]] simnet::EventQueue& eq() { return eq_; }
  [[nodiscard]] simnet::Network& net() { return net_; }
  [[nodiscard]] protocol::Engine& engine(int node) {
    return *nodes_[node].engine;
  }
  [[nodiscard]] simnet::Process& process(int node) {
    return *nodes_[node].process;
  }
  /// The CPU multiplier `node` was constructed with (its topology host
  /// spec; 1.0 for homogeneous clusters). The heal-all path of a fault
  /// campaign resets to this, not to 1.0, so constructed heterogeneity
  /// survives a heal.
  [[nodiscard]] double base_cpu_multiplier(int node) const {
    return net_.topology().hosts[static_cast<size_t>(node)].cpu_multiplier;
  }
  /// Per-node flight recorder (always attached to the node's engine).
  [[nodiscard]] util::Tracer& tracer(int node) { return *nodes_[node].tracer; }

  /// Attach a per-node MetricsRegistry to every engine (and to every future
  /// incarnation created by restart_node). Recording never perturbs the run
  /// (see obs/metrics.hpp); call any time before or during a simulation.
  void enable_metrics();
  [[nodiscard]] bool metrics_enabled() const { return metrics_enabled_; }
  /// Node's registry, or nullptr when metrics are not enabled.
  [[nodiscard]] obs::MetricsRegistry* metrics(int node) {
    return nodes_[node].metrics.get();
  }
  /// Cluster-wide aggregate: every node's registry merged (current and
  /// retired incarnations), plus cluster-level counters mirrored from
  /// stats() — delivery counts, socket drops, and fabric volume.
  [[nodiscard]] obs::MetricsRegistry merged_metrics() const;
  /// Per-node epoch store, backed by the node's SimDisk (the file survives
  /// restart_node, modelling the on-disk epoch file of a real daemon across
  /// a cold restart; the store *object* is recreated per incarnation, like
  /// the daemon's in-memory cache of it).
  [[nodiscard]] storage::EpochStore& epoch_store(int node) {
    return *nodes_[node].epochs;
  }
  /// Per-node simulated disk. Survives restart_node (a reboot keeps the
  /// disk); crash_node power-cuts it, restart_node resolves the power loss
  /// (un-fsynced state dies per the disk's crash mode) before the fresh
  /// incarnation recovers from whatever is durable.
  [[nodiscard]] storage::SimDisk& disk(int node) {
    return *disks_[static_cast<size_t>(node)];
  }
  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] const NodeSetup& setup() const { return setup_; }
  [[nodiscard]] ImplProfile profile() const { return profile_; }

  /// Snapshot of every per-node and fabric counter in one struct.
  [[nodiscard]] ClusterStats stats() const;

  /// Run the simulation until `deadline` (absolute simulated time).
  void run_until(Nanos deadline) { eq_.run_until(deadline); }

  /// Payload bytes of a data message on the wire for this cluster's profile
  /// and a given application payload size (for utilization accounting).
  [[nodiscard]] size_t datagram_size(size_t payload) const;

 private:
  void init(int num_nodes);
  void wire_node(int i);
  void attach_metrics(int i);

  /// Set only when this cluster owns its clock (single-ring constructor);
  /// eq_ references either *owned_eq_ or the caller's shared queue.
  std::unique_ptr<simnet::EventQueue> owned_eq_;
  simnet::EventQueue& eq_;
  simnet::FabricParams fabric_;
  protocol::ProtocolConfig cfg_;
  ImplProfile profile_;
  NodeSetup setup_;
  uint64_t seed_;
  simnet::Network net_;
  /// One per node index; deliberately NOT reset by restart_node (it is the
  /// node's disk, and a cold restart keeps the disk). Declared before the
  /// nodes so it outlives their epoch stores.
  std::vector<std::unique_ptr<storage::SimDisk>> disks_;
  std::vector<SimNode> nodes_;
  /// Crashed-and-replaced nodes, kept alive for pointer stability (pending
  /// simulator events may still reference their process/host/engine/epoch
  /// store).
  std::vector<SimNode> retired_;
  std::vector<int> restarts_;
  bool metrics_enabled_ = false;
  DeliverFn on_deliver_;
  ConfigFn on_config_;
  std::vector<DeliverFn> deliver_observers_;
  std::vector<ConfigFn> config_observers_;
};

}  // namespace accelring::harness
