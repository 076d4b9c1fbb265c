// Loopback transports for the UDP examples. UdpTransport binds each node's
// data and token ports exclusively, so a port another process holds throws;
// bind_loopback_ring then moves on to another port block.
#pragma once

#include <unistd.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "transport/udp_transport.hpp"

namespace accelring::examples {

/// One UdpTransport per node 0..nodes-1 on 127.0.0.1, node i on data port
/// base + 2i and token port base + 2i + 1. The first block's base is
/// `first_port` + 2 * (pid % `pid_blocks`); when a bind fails, the block 211
/// ports on is tried, up to 20 retries after the first try.
inline std::vector<std::unique_ptr<transport::UdpTransport>>
bind_loopback_ring(int nodes, int first_port, int pid_blocks,
                   transport::EventLoop& loop) {
  constexpr int kRetries = 20;
  for (int attempt = 0;; ++attempt) {
    const auto base = static_cast<uint16_t>(
        first_port + ((::getpid() % pid_blocks) * 2 + attempt * 211) % 30000);
    std::map<protocol::ProcessId, transport::PeerAddress> peers;
    for (int i = 0; i < nodes; ++i) {
      peers[static_cast<protocol::ProcessId>(i)] = transport::PeerAddress{
          "127.0.0.1", static_cast<uint16_t>(base + i * 2),
          static_cast<uint16_t>(base + i * 2 + 1)};
    }
    std::vector<std::unique_ptr<transport::UdpTransport>> transports;
    try {
      for (int i = 0; i < nodes; ++i) {
        transports.push_back(std::make_unique<transport::UdpTransport>(
            static_cast<protocol::ProcessId>(i), peers, loop));
      }
      return transports;
    } catch (const std::runtime_error&) {
      if (attempt == kRetries) throw;
    }
  }
}

}  // namespace accelring::examples
