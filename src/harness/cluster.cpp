#include "harness/cluster.hpp"

#include <cassert>

#include "membership/membership.hpp"
#include "util/rng.hpp"

namespace accelring::harness {

NodeSetup NodeSetup::for_profile(ImplProfile profile) {
  NodeSetup s;
  switch (profile) {
    case ImplProfile::kLibrary:
      // Engine embedded in the application: minimal per-message overhead.
      s.header_pad = 0;
      s.client_inject_cost = 0;
      s.client_deliver_cost = 0;
      s.group_routing_cost = 0;
      s.ipc_latency = 0;
      break;
    case ImplProfile::kDaemon:
      // Client <-> daemon IPC on both the send and the delivery path.
      s.header_pad = 16;
      s.client_inject_cost = 700;
      s.client_deliver_cost = 1'000;
      s.ipc_per_byte = 0.11;
      s.group_routing_cost = 0;
      s.ipc_latency = 4'000;
      break;
    case ImplProfile::kSpread:
      // Production system: big headers (group + sender names, routing
      // metadata) and group-name analysis on every delivery.
      s.header_pad = 80;
      s.client_inject_cost = 900;
      s.client_deliver_cost = 1'100;
      s.ipc_per_byte = 0.11;
      s.group_routing_cost = 1'200;
      s.ipc_latency = 4'000;
      break;
  }
  return s;
}

SimCluster::SimCluster(int num_nodes, simnet::FabricParams fabric,
                       protocol::ProtocolConfig cfg, ImplProfile profile,
                       uint64_t seed)
    : SimCluster(simnet::Topology::single_dc(num_nodes), fabric, cfg, profile,
                 seed) {}

SimCluster::SimCluster(const simnet::Topology& topo,
                       simnet::FabricParams fabric,
                       protocol::ProtocolConfig cfg, ImplProfile profile,
                       uint64_t seed)
    : owned_eq_(std::make_unique<simnet::EventQueue>()),
      eq_(*owned_eq_),
      fabric_(fabric),
      cfg_(cfg),
      profile_(profile),
      setup_(NodeSetup::for_profile(profile)),
      seed_(seed),
      net_(eq_, fabric, topo, seed) {
  init(topo.num_hosts());
}

SimCluster::SimCluster(simnet::EventQueue& eq, const simnet::Topology& topo,
                       simnet::FabricParams fabric,
                       protocol::ProtocolConfig cfg, ImplProfile profile,
                       uint64_t seed)
    : eq_(eq),
      fabric_(fabric),
      cfg_(cfg),
      profile_(profile),
      setup_(NodeSetup::for_profile(profile)),
      seed_(seed),
      net_(eq_, fabric, topo, seed) {
  init(topo.num_hosts());
}

void SimCluster::init(int num_nodes) {
  if (profile_ == ImplProfile::kSpread) {
    // Spread 4.4 ships the conservative priority method (paper §III-D).
    cfg_.priority = protocol::PriorityMethod::kConservative;
  }
  // Fragment-count CPU accounting must agree with the fabric's MTU.
  setup_.proc_costs.mtu = fabric_.mtu;
  nodes_.resize(num_nodes);
  restarts_.assign(static_cast<size_t>(num_nodes), 0);
  disks_.clear();
  for (int i = 0; i < num_nodes; ++i) {
    // Each node's disk gets its own deterministic rng stream, derived from
    // the cluster seed; disk randomness (torn-write resolution) never
    // perturbs the network rng.
    uint64_t mix = seed_ * 0x9e3779b97f4a7c15ULL +
                   static_cast<uint64_t>(i) + 0x6469736bULL;  // "disk"
    disks_.push_back(std::make_unique<storage::SimDisk>(util::splitmix64(mix)));
  }
  for (int i = 0; i < num_nodes; ++i) wire_node(i);
}

void SimCluster::wire_node(int i) {
  SimNode& node = nodes_[i];
  // Socket buffers: 4 MB mirrors a tuned SO_RCVBUF for a high-rate daemon.
  node.process = std::make_unique<simnet::Process>(eq_, setup_.proc_costs,
                                                   4 * 1024 * 1024);
  // Heterogeneous topologies: the host's constructed CPU speed, re-applied
  // on every restart incarnation (a reboot does not change the hardware).
  const double cpu_mult =
      net_.topology().hosts[static_cast<size_t>(i)].cpu_multiplier;
  if (cpu_mult != 1.0) node.process->set_cpu_multiplier(cpu_mult);
  node.host = std::make_unique<transport::SimHost>(net_, *node.process, i,
                                                   setup_.host_costs);
  node.engine = std::make_unique<protocol::Engine>(
      static_cast<protocol::ProcessId>(i), cfg_, *node.host);
  node.engine->set_header_pad(setup_.header_pad);
  // Always-on flight recorder (two stores per event); tests may swap in
  // their own via engine(i).set_tracer().
  node.tracer = std::make_unique<util::Tracer>(16384);
  node.engine->set_tracer(node.tracer.get());
  // Fresh epoch-store object per incarnation (daemon memory), over the
  // node's surviving disk (the epoch file); a retired node keeps its own.
  node.epochs = std::make_unique<storage::EpochStore>(
      *disks_[static_cast<size_t>(i)], "epoch");
  node.engine->set_epoch_store(node.epochs.get());
  if (metrics_enabled_) attach_metrics(i);
  node.host->bind(*node.engine);
  node.process->set_sink(node.host.get());
  net_.attach(i, [proc = node.process.get()](
                     simnet::SocketId sock, const simnet::Network::Payload& p) {
    proc->enqueue(sock, p);
  });

  node.host->set_deliver([this, i](const protocol::Delivery& delivery) {
    SimNode& n = nodes_[i];
    ++n.delivered;
    // Daemon/Spread: the daemon spends CPU routing and writing the message
    // to the receiving client, which then sees it one IPC hop later.
    n.process->charge(setup_.group_routing_cost + setup_.client_deliver_cost +
                      static_cast<Nanos>(
                          static_cast<double>(delivery.payload.size()) *
                          setup_.ipc_per_byte));
    const Nanos client_sees = n.process->now() + setup_.ipc_latency;
    for (const DeliverFn& fn : deliver_observers_) fn(i, delivery, client_sees);
    if (on_deliver_) on_deliver_(i, delivery, client_sees);
  });
  node.host->set_config([this, i](const protocol::ConfigurationChange& c) {
    for (const ConfigFn& fn : config_observers_) fn(i, c);
    if (on_config_) on_config_(i, c);
  });
}

void SimCluster::attach_metrics(int i) {
  SimNode& node = nodes_[i];
  node.metrics = std::make_unique<obs::MetricsRegistry>();
  node.engine->set_metrics(protocol::EngineMetrics::bind(*node.metrics));
}

void SimCluster::enable_metrics() {
  if (metrics_enabled_) return;
  metrics_enabled_ = true;
  for (int i = 0; i < size(); ++i) attach_metrics(i);
}

obs::MetricsRegistry SimCluster::merged_metrics() const {
  obs::MetricsRegistry merged;
  for (const SimNode& n : retired_) {
    if (n.metrics) merged.merge_from(*n.metrics);
  }
  for (const SimNode& n : nodes_) {
    if (n.metrics) merged.merge_from(*n.metrics);
  }
  // Mirror the cluster-level counters stats() computes, so one registry
  // export carries the full picture.
  const ClusterStats s = stats();
  merged.counter("cluster", "delivered").set(s.delivered_total());
  merged.counter("cluster", "socket_drops").set(s.socket_drops());
  merged.counter("cluster", "submit_rejected").set(s.submit_rejected());
  merged.counter("net", "datagrams_sent").set(s.net.datagrams_sent);
  merged.counter("net", "wire_bytes").set(s.net.wire_bytes);
  obs::Gauge& cpu = merged.gauge("cluster", "max_cpu_microutil");
  cpu.set(static_cast<int64_t>(s.max_cpu_utilization() * 1e6));
  return merged;
}

void SimCluster::crash_node(int node) {
  assert(node >= 0 && node < size());
  net_.set_host_down(node, true);
  // A crash is a power cut: everything un-fsynced on the node's disk dies
  // right now, per the disk's crash mode. The disk itself stays operational
  // (and survives into the next incarnation), matching the pre-storage
  // behavior where the epoch store kept accepting writes from the zombie
  // engine between crash and restart.
  disks_[static_cast<size_t>(node)]->power_loss();
}

void SimCluster::restart_node(int node) {
  assert(node >= 0 && node < size());
  assert(net_.host_down(node));
  // Retire the old incarnation: mute its host (sends, deliveries, timer
  // rearms all become no-ops) and move it to the graveyard so any simulator
  // events still holding pointers to its process/engine stay valid.
  SimNode& old = nodes_[node];
  old.host->set_dead(true);
  retired_.push_back(std::move(old));
  nodes_[node] = SimNode{};
  wire_node(node);
  // Deliveries of previous incarnations stay counted in the retired node;
  // carry the count over so ClusterStats::delivered stays cumulative.
  nodes_[node].delivered = retired_.back().delivered;
  ++restarts_[static_cast<size_t>(node)];
  net_.set_host_down(node, false);
  nodes_[node].process->run_soon(
      [this, node] { nodes_[node].engine->start_discovery(); });
}

void SimCluster::start_static() {
  protocol::RingConfig ring;
  ring.ring_id = membership::make_ring_id(1, 0);
  for (int i = 0; i < size(); ++i) {
    ring.members.push_back(static_cast<protocol::ProcessId>(i));
  }
  // Bring every node up on its own virtual CPU at time zero; the
  // representative (node 0) originates the first token.
  for (int i = size() - 1; i >= 0; --i) {
    nodes_[i].process->run_soon(
        [this, i, ring] { nodes_[i].engine->start_with_ring(ring); });
  }
}

void SimCluster::start_discovery() {
  for (int i = 0; i < size(); ++i) {
    nodes_[i].process->run_soon(
        [this, i] { nodes_[i].engine->start_discovery(); });
  }
}

void SimCluster::submit(int node, protocol::Service service,
                        std::vector<std::byte> payload) {
  assert(node >= 0 && node < size());
  SimNode& n = nodes_[node];
  const Nanos cpu_cost = setup_.client_inject_cost;
  if (profile_ == ImplProfile::kLibrary) {
    // The application and the engine share a process: direct submit.
    n.process->run_soon(
        [engine = n.engine.get(), service, p = std::move(payload)]() mutable {
          engine->submit(service, std::move(p));
        },
        cpu_cost);
    return;
  }
  // Daemon/Spread: the client writes to the IPC socket; the daemon reads it
  // one IPC hop later, paying the read cost on its own CPU.
  eq_.schedule_after(setup_.ipc_latency, [this, node, service, cpu_cost,
                                          p = std::move(payload)]() mutable {
    SimNode& target = nodes_[node];
    target.process->run_soon(
        [engine = target.engine.get(), service, p = std::move(p)]() mutable {
          engine->submit(service, std::move(p));
        },
        cpu_cost);
  });
}

ClusterStats SimCluster::stats() const {
  ClusterStats s;
  s.now = eq_.now();
  s.net = net_.stats();
  s.nodes.reserve(nodes_.size());
  for (const SimNode& n : nodes_) {
    ClusterStats::NodeStats ns;
    ns.engine = n.engine->stats();
    ns.delivered = n.delivered;
    ns.socket_drops = n.process->socket_drops();
    ns.busy_time = n.process->busy_time();
    ns.cpu_utilization = s.now > 0 ? static_cast<double>(ns.busy_time) /
                                         static_cast<double>(s.now)
                                   : 0.0;
    s.nodes.push_back(ns);
  }
  return s;
}

size_t SimCluster::datagram_size(size_t payload) const {
  return protocol::DataMsg::encoded_size(payload, setup_.header_pad);
}

}  // namespace accelring::harness
