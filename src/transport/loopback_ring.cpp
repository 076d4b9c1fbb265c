#include "transport/loopback_ring.hpp"

#include <unistd.h>

#include <stdexcept>
#include <string>

#include "membership/membership.hpp"

namespace accelring::transport {

LoopbackRing::LoopbackRing(EventLoop& loop, int nodes,
                           const protocol::ProtocolConfig& config,
                           Addresses addresses, const ShimFn& shim) {
  // The first block is derived from the pid, so parallel processes rarely
  // collide; each of up to 20 retries moves 211 ports on.
  for (int attempt = 0;; ++attempt) {
    const auto base = static_cast<uint16_t>(
        20000 + (::getpid() * 7 + attempt * 211) % 20000);
    for (int i = 0; i < nodes; ++i) {
      peers_[static_cast<protocol::ProcessId>(i)] = PeerAddress{
          addresses == Addresses::kShared ? "127.0.0.1"
                                          : "127.0.0." + std::to_string(i + 1),
          static_cast<uint16_t>(base + i * 2),
          static_cast<uint16_t>(base + i * 2 + 1)};
    }
    try {
      for (int i = 0; i < nodes; ++i) {
        nodes_.push_back(Node{std::make_unique<UdpTransport>(
                                  static_cast<protocol::ProcessId>(i), peers_,
                                  loop),
                              nullptr});
      }
      break;
    } catch (const std::runtime_error&) {
      nodes_.clear();
      if (attempt == 20) throw;
    }
  }
  for (int i = 0; i < nodes; ++i) {
    const auto id = static_cast<protocol::ProcessId>(i);
    UdpTransport& t = transport(i);
    std::unique_ptr<protocol::Engine>& engine = nodes_[id].engine;
    if (!shim) {
      engine = std::make_unique<protocol::Engine>(id, config, t);
      t.bind(*engine);
      continue;
    }
    Shim& layer = shim(t);
    engine = std::make_unique<protocol::Engine>(id, config, layer);
    layer.engine = engine.get();
    t.bind(layer);
  }
}

void LoopbackRing::start() {
  protocol::RingConfig ring;
  ring.ring_id = membership::make_ring_id(1, 0);
  for (int i = 0; i < size(); ++i) {
    ring.members.push_back(static_cast<protocol::ProcessId>(i));
  }
  for (int i = size() - 1; i >= 0; --i) engine(i).start_with_ring(ring);
}

}  // namespace accelring::transport
