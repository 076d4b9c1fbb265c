// Simulated cluster assembly for the related-work baseline protocols
// (sequencer, U-Ring Paxos). Mirrors harness::SimCluster but is generic over
// the protocol type: same fabric, same process CPU model, same SimHost cost
// model, so cross-protocol comparisons (bench/related_protocols) are
// apples-to-apples with the ring protocols — only the protocol differs.
// run_baseline_point measures one offered load through the same injector and
// recorder as harness::run_point.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "harness/latency.hpp"
#include "membership/membership.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/network.hpp"
#include "simnet/process.hpp"
#include "transport/sim_host.hpp"

namespace accelring::baselines {

/// Protocol must provide: Protocol(pid, RingConfig, Config, Host&),
/// submit(payload), and implement protocol::PacketHandler.
template <typename Protocol, typename Config>
class BaselineCluster {
 public:
  using DeliverFn = std::function<void(int node, const protocol::Delivery&,
                                       protocol::Nanos at)>;

  BaselineCluster(int num_nodes, simnet::FabricParams fabric, Config cfg,
                  uint64_t seed = 1, transport::HostCosts host_costs = {})
      : net_(eq_, fabric, num_nodes, seed) {
    protocol::RingConfig members;
    members.ring_id = membership::make_ring_id(1, 0);
    for (int i = 0; i < num_nodes; ++i) {
      members.members.push_back(static_cast<protocol::ProcessId>(i));
    }
    simnet::ProcessCosts proc_costs;
    proc_costs.mtu = fabric.mtu;
    nodes_.resize(num_nodes);
    for (int i = 0; i < num_nodes; ++i) {
      Node& node = nodes_[i];
      node.process =
          std::make_unique<simnet::Process>(eq_, proc_costs, 4 * 1024 * 1024);
      node.host = std::make_unique<transport::SimHost>(net_, *node.process, i,
                                                       host_costs);
      node.protocol = std::make_unique<Protocol>(
          static_cast<protocol::ProcessId>(i), members, cfg, *node.host);
      node.host->bind(*node.protocol);
      node.process->set_sink(node.host.get());
      net_.attach(i, [proc = node.process.get()](
                         simnet::SocketId sock,
                         const simnet::Network::Payload& p) {
        proc->enqueue(sock, p);
      });
      node.host->set_deliver(
          [this, i](const protocol::Delivery& delivery) {
            if (on_deliver_) {
              on_deliver_(i, delivery, nodes_[i].process->now());
            }
          });
    }
  }

  void submit(int node, std::vector<std::byte> payload) {
    nodes_[node].process->run_soon(
        [protocol = nodes_[node].protocol.get(),
         p = std::move(payload)]() mutable { protocol->submit(std::move(p)); });
  }

  void set_on_deliver(DeliverFn fn) { on_deliver_ = std::move(fn); }

  [[nodiscard]] simnet::EventQueue& eq() { return eq_; }
  [[nodiscard]] simnet::Network& net() { return net_; }
  [[nodiscard]] Protocol& protocol_at(int node) {
    return *nodes_[node].protocol;
  }
  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  void run_until(protocol::Nanos deadline) { eq_.run_until(deadline); }

 private:
  struct Node {
    std::unique_ptr<simnet::Process> process;
    std::unique_ptr<transport::SimHost> host;
    std::unique_ptr<Protocol> protocol;
  };

  simnet::EventQueue eq_;
  simnet::Network net_;
  std::vector<Node> nodes_;
  DeliverFn on_deliver_;
};

/// One fixed-rate point: 8 senders share `offered_mbps` of 1350 B payloads;
/// after a 100 ms warmup, a 300 ms window is measured at node 1 (not node 0,
/// where the sequencer and the Paxos coordinator sit).
template <typename Protocol, typename Config>
[[nodiscard]] harness::PointResult run_baseline_point(
    simnet::FabricParams fabric, double offered_mbps,
    transport::HostCosts host_costs = {}) {
  constexpr int kNodes = 8;
  constexpr int kObserver = 1;
  const protocol::Nanos warmup = util::msec(100);
  const protocol::Nanos window_end = warmup + util::msec(300);
  BaselineCluster<Protocol, Config> cluster(kNodes, fabric, Config{},
                                            /*seed=*/1, host_costs);
  harness::LatencyRecorder recorder(1, warmup, window_end);
  cluster.set_on_deliver([&recorder](int node, const protocol::Delivery& d,
                                     protocol::Nanos at) {
    if (node == kObserver) recorder.record(0, d, at);
  });
  harness::RateInjector::Options inject;
  inject.payload_size = 1350;
  inject.aggregate_mbps = offered_mbps;
  inject.start = util::usec(100);
  inject.stop = window_end;
  harness::RateInjector injector(
      cluster.eq(), kNodes, inject,
      [&cluster](int node, uint32_t, std::vector<std::byte> payload) {
        cluster.submit(node, std::move(payload));
      });
  injector.arm();
  cluster.run_until(window_end + util::msec(50));
  return recorder.result(offered_mbps);
}

}  // namespace accelring::baselines
