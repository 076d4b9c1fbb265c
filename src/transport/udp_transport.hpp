// Real-socket transport: the protocol engine over UDP.
//
// Mirrors the paper's implementation choices (§III-D): data and token travel
// on *separate ports / sockets* so the receiver can drain them with
// different priorities, and when IP-multicast is unavailable the transport
// falls back to unicast fan-out logical multicast (an option Spread also
// ships, and the portable default here — it works on loopback and inside
// containers).
//
// Single-threaded: everything runs on the owning EventLoop. The priority
// mechanism reads the engine's preferred socket before every receive, so a
// raised token priority takes effect mid-burst exactly as in §III-C.
#pragma once

#include <netinet/in.h>

#include <array>
#include <map>
#include <string>
#include <vector>

#include "protocol/engine.hpp"
#include "transport/event_loop.hpp"

namespace accelring::transport {

struct PeerAddress {
  std::string ip = "127.0.0.1";
  uint16_t data_port = 0;
  uint16_t token_port = 0;
};

class UdpTransport final : public protocol::Host {
 public:
  using DeliverFn = std::function<void(const protocol::Delivery&)>;
  using ConfigFn = std::function<void(const protocol::ConfigurationChange&)>;

  /// Resolves every peer's addresses and binds this process's data/token
  /// sockets per peers[self]. Throws std::runtime_error when an address does
  /// not parse or binding fails.
  UdpTransport(protocol::ProcessId self,
               std::map<protocol::ProcessId, PeerAddress> peers,
               EventLoop& loop);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  void bind(protocol::PacketHandler& handler) { handler_ = &handler; }
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_config(ConfigFn fn) { config_ = std::move(fn); }

  // --- protocol::Host --------------------------------------------------------
  void multicast(protocol::SocketId sock,
                 std::span<const std::byte> data) override;
  void unicast(protocol::ProcessId to, protocol::SocketId sock,
               std::span<const std::byte> data, Nanos delay) override;
  void deliver(const protocol::Delivery& delivery) override;
  void on_configuration(const protocol::ConfigurationChange& change) override;
  void set_timer(protocol::TimerKind kind, Nanos delay) override;
  void cancel_timer(protocol::TimerKind kind) override;
  Nanos now() override { return loop_.now(); }
  /// Thread CPU clock for the gray-failure health stamp: single-threaded, so
  /// CLOCK_THREAD_CPUTIME_ID is exactly the daemon's protocol-processing
  /// cost, and a core shared with a noisy neighbour shows up as a higher
  /// per-rotation delta just like in the simulator.
  Nanos cpu_time() override;

  [[nodiscard]] uint64_t datagrams_sent() const { return sent_; }
  [[nodiscard]] uint64_t datagrams_received() const { return received_; }
  /// Datagrams the kernel refused to take (EAGAIN, unreachable, short
  /// write). Treated as wire loss: the protocol retransmits.
  [[nodiscard]] uint64_t send_drops() const { return send_drops_; }

 private:
  /// A peer's resolved destinations, indexed by SocketId.
  struct Peer {
    protocol::ProcessId id;
    std::array<sockaddr_in, 2> addr;
  };

  void on_readable(protocol::SocketId which);
  /// Drain up to one datagram from the preferred socket (or the other if
  /// the preferred one is empty). Returns false when both are empty.
  bool read_one();
  void send_to(protocol::ProcessId to, protocol::SocketId sock,
               std::span<const std::byte> data);
  void send_to(const Peer& peer, protocol::SocketId sock,
               std::span<const std::byte> data);

  protocol::ProcessId self_;
  std::vector<Peer> peers_;  ///< every peer, self included, ordered by id
  EventLoop& loop_;
  int timer_base_;  ///< first of this transport's loop timer ids
  protocol::PacketHandler* handler_ = nullptr;
  int data_fd_ = -1;
  int token_fd_ = -1;
  DeliverFn deliver_;
  ConfigFn config_;
  std::vector<std::byte> pending_token_;  ///< delayed (idle-hold) token
  protocol::ProcessId pending_token_to_ = protocol::kNoProcess;
  uint64_t sent_ = 0;
  uint64_t received_ = 0;
  uint64_t send_drops_ = 0;
};

}  // namespace accelring::transport
