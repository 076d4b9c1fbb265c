// A ring of protocol::Engines over real UDP sockets on loopback, every node
// on one caller-owned EventLoop: the one real-socket ring the examples and
// the tests run. Node i is process i, on data port base + 2i and token port
// base + 2i + 1. UdpTransport binds its ports exclusively, so when a port is
// taken (by another process, or another ring in this one) the ring moves on
// to another pid-derived port block.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "transport/udp_transport.hpp"

namespace accelring::transport {

class LoopbackRing {
 public:
  /// Where the nodes live: all on 127.0.0.1, so the ring multicasts its
  /// data, or node i on 127.0.0.(i+1), so data fans out by unicast.
  enum class Addresses { kShared, kPerNode };

  /// A layer between a node's engine and its transport: the engine's Host,
  /// and the transport's PacketHandler, which passes packets and timers on
  /// to `engine` (set by the ring once it built the engine).
  struct Shim : protocol::Host, protocol::PacketHandler {
    protocol::PacketHandler* engine = nullptr;
  };
  /// Called once per node, in id order, with its bound transport; returns
  /// the shim to put on it, which the caller owns and keeps past the ring.
  using ShimFn = std::function<Shim&(UdpTransport& transport)>;

  /// Binds `nodes` transports on `loop` and puts an engine with `config` on
  /// each, directly unless `shim` is set. Throws std::runtime_error when no
  /// port block was free.
  LoopbackRing(EventLoop& loop, int nodes,
               const protocol::ProtocolConfig& config,
               Addresses addresses = Addresses::kShared,
               const ShimFn& shim = {});

  /// Set before start() to see the first configuration.
  void set_deliver(int node, UdpTransport::DeliverFn fn) {
    transport(node).set_deliver(std::move(fn));
  }
  void set_config(int node, UdpTransport::ConfigFn fn) {
    transport(node).set_config(std::move(fn));
  }

  /// Start every node on one static ring of all nodes, the representative
  /// last, so the first token finds every node ready. Call once.
  void start();

  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] protocol::Engine& engine(int node) {
    return *nodes_[static_cast<size_t>(node)].engine;
  }
  [[nodiscard]] UdpTransport& transport(int node) {
    return *nodes_[static_cast<size_t>(node)].transport;
  }
  /// The addresses the ring bound.
  [[nodiscard]] const std::map<protocol::ProcessId, PeerAddress>& peers()
      const {
    return peers_;
  }

 private:
  struct Node {
    // Destroyed in reverse order: the engine before its transport.
    std::unique_ptr<UdpTransport> transport;
    std::unique_ptr<protocol::Engine> engine;
  };

  std::map<protocol::ProcessId, PeerAddress> peers_;
  std::vector<Node> nodes_;
};

}  // namespace accelring::transport
