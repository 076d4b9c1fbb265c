// Real-socket transport: the protocol engine over UDP.
//
// Mirrors the paper's implementation choices (§III-D): data and token travel
// on *separate ports / sockets* so the receiver can drain them with
// different priorities, data goes out by IP multicast and the token by
// unicast.
//
// The data path follows from the peer map, with no option:
//  - Every peer on one IP address (a ring on one host, loopback included):
//    data datagrams go to an IPv4 group in 239.255.0.0/16 whose low 16 bits
//    are those of the shared address, on the lowest-id member's data port.
//    That port is bound exclusively by its owner, so no other ring on the
//    address uses the group port. Each node receives on a group socket
//    joined on its own address; a classic BPF filter on it drops the node's
//    own copies (UDP source port == its data port) in the kernel. Delivery
//    never leaves the interface, so no multicast routing is needed.
//    The group path batches through the kernel. While the transport hands a
//    datagram or a timer to its handler (a dispatch), the data multicasts
//    the handler makes queue; the queue leaves as one UDP_SEGMENT (GSO)
//    sendmsg before any unicast and when the handler returns. A token visit
//    thus sends its pre-token data in one call, the token, then its
//    post-token burst in one call (§III-A). Outside a dispatch a multicast
//    is one sendto, as is a batch of one. The group socket sets UDP_GRO, so
//    a burst arrives as one coalesced read, handed to the handler one
//    segment at a time.
//  - Peers on several addresses: unicast fan-out logical multicast, one
//    sendto per peer (an option Spread also ships). Multicast across hosts
//    needs a multicast-routed segment that the peer map cannot name yet.
// Every node derives the same mode from the same peer map, so a ring never
// mixes them. The per-node data and token sockets are bound exclusively: a
// second transport on a taken port throws instead of sharing its traffic.
//
// Single-threaded: everything runs on the owning EventLoop. The priority
// mechanism reads the engine's preferred socket before every datagram it
// hands up, segments of a coalesced read included, so a raised token
// priority takes effect mid-burst exactly as in §III-C.
#pragma once

#include <netinet/in.h>

#include <array>
#include <map>
#include <optional>
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
  /// sockets per peers[self]; when every peer shares one address, also joins
  /// the ring's data group (see the file comment). Throws std::runtime_error
  /// when an address does not parse, a port is taken, or the group cannot
  /// be joined, filtered or set to UDP_GRO (Linux 5.0 or later).
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

  /// Datagrams, counted one by one also when a batch carried them.
  [[nodiscard]] uint64_t datagrams_sent() const { return sent_; }
  [[nodiscard]] uint64_t datagrams_received() const { return received_; }
  /// The datagrams among datagrams_sent() that left the data socket: data
  /// messages and joins, the token excluded.
  [[nodiscard]] uint64_t data_datagrams_sent() const { return data_sent_; }
  /// Send calls on the data socket: one per batch, one per datagram
  /// otherwise. data_datagrams_sent() over this is the batching factor.
  [[nodiscard]] uint64_t data_send_calls() const { return data_calls_; }
  /// Datagrams the kernel refused to take (EAGAIN, unreachable, short
  /// write). Treated as wire loss: the protocol retransmits.
  [[nodiscard]] uint64_t send_drops() const { return send_drops_; }
  /// The data path, for logs: "multicast <group>:<port>" or
  /// "unicast fan-out".
  [[nodiscard]] std::string data_path() const;

 private:
  /// A peer's resolved destinations, indexed by SocketId.
  struct Peer {
    protocol::ProcessId id;
    std::array<sockaddr_in, 2> addr;
  };

  void open_sockets(const PeerAddress& me);
  void close_sockets();
  /// Drain up to one read from the preferred socket (or the other if the
  /// preferred one is empty). Returns false when both are empty.
  bool read_one();
  /// Hand one read waiting at `fd` to the handler as arriving on `sock`,
  /// segment by segment if the kernel coalesced it; false when there is
  /// none. Before each later segment, reads the token socket first while
  /// the handler prefers it, as read_one() would between datagrams.
  bool receive(int fd, protocol::SocketId sock);
  /// Call `fn`, a call into the handler, as a dispatch: group data
  /// multicasts queue meanwhile and leave when it returns.
  template <typename Fn>
  void dispatch(Fn&& fn);
  /// Add one group datagram to the batch, sending the batch first if the
  /// datagram cannot join it, and after it if it is shorter than the rest.
  void queue_data(std::span<const std::byte> data);
  /// Send the batch, if any: one sendto for one datagram, else one
  /// UDP_SEGMENT sendmsg.
  void flush_data();
  void send_to(protocol::ProcessId to, protocol::SocketId sock,
               std::span<const std::byte> data);
  /// Send from the socket matching `sock`, so captures look sane.
  [[nodiscard]] int fd_of(protocol::SocketId sock) const {
    return sock == protocol::kSockToken ? token_fd_ : data_fd_;
  }
  void send(int fd, const sockaddr_in& to, std::span<const std::byte> data);

  protocol::ProcessId self_;
  std::vector<Peer> peers_;  ///< every peer, self included, ordered by id
  EventLoop& loop_;
  int timer_base_;  ///< first of this transport's loop timer ids
  protocol::PacketHandler* handler_ = nullptr;
  std::optional<sockaddr_in> group_;  ///< set when data goes by multicast
  int data_fd_ = -1;  ///< sends data; receives data sent to this node alone
  int token_fd_ = -1;
  int group_fd_ = -1;  ///< receives the ring's multicast data, if any
  DeliverFn deliver_;
  ConfigFn config_;
  bool dispatching_ = false;
  std::vector<std::byte> batch_;  ///< queued group datagrams, back to back
  size_t segment_ = 0;  ///< the first queued datagram's size
  int batched_ = 0;     ///< datagrams in batch_
  uint64_t sent_ = 0;
  uint64_t received_ = 0;
  uint64_t send_drops_ = 0;
  uint64_t data_sent_ = 0;
  uint64_t data_calls_ = 0;
};

}  // namespace accelring::transport
