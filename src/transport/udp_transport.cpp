#include "transport/udp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <linux/filter.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <iterator>
#include <stdexcept>

namespace accelring::transport {

namespace {

// Loop-timer ids, as offsets into the block each transport reserves on its
// loop: 0..15 for protocol TimerKind, the delayed token above them.
constexpr int kTimerKinds = 16;
constexpr int kDelayedTokenTimer = kTimerKinds;
constexpr int kTimerIds = kTimerKinds + 1;

static_assert(protocol::kSockData == 0 && protocol::kSockToken == 1,
              "Peer::addr is indexed by SocketId");

sockaddr_in resolve(const std::string& ip, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("bad address: " + ip);
  }
  return addr;
}

std::string to_string(const sockaddr_in& addr) {
  char ip[INET_ADDRSTRLEN] = {};
  ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

void set_option(int fd, int level, int name, const void* value,
                socklen_t size, const char* what) {
  if (::setsockopt(fd, level, name, value, size) != 0) {
    throw std::runtime_error(std::string(what) + " failed: " +
                             std::strerror(errno));
  }
}

/// Opens into `fd` a nonblocking UDP socket bound to `addr`; on a throw, the
/// caller closes `fd`. Only a `shared` socket sets SO_REUSEADDR: a node's
/// own ports are bound exclusively, so a taken port fails here instead of
/// silently splitting its traffic.
void open_socket(int& fd, const sockaddr_in& addr, bool shared) {
  fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  if (shared) {
    set_option(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one),
               "SO_REUSEADDR");
  }
  // Size both buffers explicitly: a high-rate ring bursts a full token
  // round's worth of datagrams at once, and the kernel defaults (often a few
  // hundred KB) silently drop the tail of each burst on both directions.
  const int buf = 4 * 1024 * 1024;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw std::runtime_error("bind() failed on " + to_string(addr) + ": " +
                             std::strerror(errno));
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// The ring's data group when every peer shares one address: 239.255.x.y
/// with x.y the address's low 16 bits, on the lowest-id member's data port.
std::optional<sockaddr_in> data_group(
    const std::map<protocol::ProcessId, PeerAddress>& peers) {
  const sockaddr_in first = resolve(peers.begin()->second.ip,
                                    peers.begin()->second.data_port);
  for (const auto& [pid, a] : peers) {
    if (resolve(a.ip, 0).sin_addr.s_addr != first.sin_addr.s_addr) {
      return std::nullopt;
    }
  }
  sockaddr_in group = first;
  group.sin_addr.s_addr =
      htonl(0xEFFF0000u | (ntohl(first.sin_addr.s_addr) & 0xFFFFu));
  return group;
}

/// Opens into `fd` the group socket: bound to the group (shared by the
/// ring's members on this host), joined on `self.sin_addr`, and filtered so
/// that datagrams from `self`'s own data port (its multicast loop copies)
/// never queue.
void open_group_socket(int& fd, const sockaddr_in& group,
                       const sockaddr_in& self) {
  open_socket(fd, group, /*shared=*/true);
  const ip_mreq join{group.sin_addr, self.sin_addr};
  set_option(fd, IPPROTO_IP, IP_ADD_MEMBERSHIP, &join, sizeof(join),
             "IP_ADD_MEMBERSHIP");
  // A UDP socket's filter sees the datagram from its UDP header on, whose
  // first half-word is the source port.
  sock_filter code[] = {
      BPF_STMT(BPF_LD | BPF_H | BPF_ABS, 0),
      BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, ntohs(self.sin_port), 0, 1),
      BPF_STMT(BPF_RET | BPF_K, 0),            // own copy: drop
      BPF_STMT(BPF_RET | BPF_K, 0xFFFFFFFFu),  // everyone else's: keep
  };
  const sock_fprog filter{static_cast<unsigned short>(std::size(code)), code};
  set_option(fd, SOL_SOCKET, SO_ATTACH_FILTER, &filter, sizeof(filter),
             "SO_ATTACH_FILTER");
}

}  // namespace

UdpTransport::UdpTransport(protocol::ProcessId self,
                           std::map<protocol::ProcessId, PeerAddress> peers,
                           EventLoop& loop)
    : self_(self), loop_(loop), timer_base_(loop.reserve_timer_ids(kTimerIds)) {
  const auto it = peers.find(self_);
  if (it == peers.end()) throw std::runtime_error("self not in peer map");
  for (const auto& [pid, a] : peers) {
    peers_.push_back(
        Peer{pid, {resolve(a.ip, a.data_port), resolve(a.ip, a.token_port)}});
  }
  group_ = data_group(peers);
  try {
    open_sockets(it->second);
  } catch (...) {
    close_sockets();
    throw;
  }
  // Drain everything available, re-checking priority between datagrams.
  const auto drain = [this] {
    while (read_one()) {
    }
  };
  loop_.add_fd(token_fd_, drain);
  if (group_fd_ >= 0) {
    loop_.add_fd(group_fd_, drain);
    // Multicast data arrives at the group socket; the data socket only gets
    // what a peer unicasts to this node's data port.
    loop_.add_fd(data_fd_, [this] {
      while (receive(data_fd_, protocol::kSockData)) {
      }
    });
  } else {
    loop_.add_fd(data_fd_, drain);
  }
}

void UdpTransport::open_sockets(const PeerAddress& me) {
  const sockaddr_in data = resolve(me.ip, me.data_port);
  open_socket(data_fd_, data, /*shared=*/false);
  open_socket(token_fd_, resolve(me.ip, me.token_port), /*shared=*/false);
  if (!group_) return;
  open_group_socket(group_fd_, *group_, data);
  // The data socket sends to the group on this node's own interface, one
  // hop, and loops copies back to the other members on this host.
  const int one = 1;
  set_option(data_fd_, IPPROTO_IP, IP_MULTICAST_IF, &data.sin_addr,
             sizeof(data.sin_addr), "IP_MULTICAST_IF");
  set_option(data_fd_, IPPROTO_IP, IP_MULTICAST_LOOP, &one, sizeof(one),
             "IP_MULTICAST_LOOP");
  set_option(data_fd_, IPPROTO_IP, IP_MULTICAST_TTL, &one, sizeof(one),
             "IP_MULTICAST_TTL");
}

void UdpTransport::close_sockets() {
  for (int* fd : {&data_fd_, &token_fd_, &group_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

UdpTransport::~UdpTransport() {
  for (int id = 0; id < kTimerIds; ++id) loop_.cancel_timer(timer_base_ + id);
  loop_.remove_fd(data_fd_);
  loop_.remove_fd(token_fd_);
  if (group_fd_ >= 0) loop_.remove_fd(group_fd_);
  close_sockets();
}

std::string UdpTransport::data_path() const {
  return group_ ? "multicast " + to_string(*group_) : "unicast fan-out";
}

void UdpTransport::send_to(protocol::ProcessId to, protocol::SocketId sock,
                           std::span<const std::byte> data) {
  const auto it = std::find_if(peers_.begin(), peers_.end(),
                               [to](const Peer& p) { return p.id == to; });
  if (it == peers_.end()) return;
  send(fd_of(sock), it->addr[sock], data);
}

void UdpTransport::send(int fd, const sockaddr_in& to,
                        std::span<const std::byte> data) {
  ssize_t n;
  do {
    n = ::sendto(fd, data.data(), data.size(), 0,
                 reinterpret_cast<const sockaddr*>(&to), sizeof(to));
  } while (n < 0 && errno == EINTR);
  // UDP gives no delivery guarantee anyway, so a full socket buffer
  // (EAGAIN), an unreachable peer, or a short write is exactly a dropped
  // datagram: count it and move on — the ring's retransmission machinery is
  // the recovery path, not the syscall return code.
  if (n == static_cast<ssize_t>(data.size())) {
    ++sent_;
  } else {
    ++send_drops_;
  }
}

void UdpTransport::multicast(protocol::SocketId sock,
                             std::span<const std::byte> data) {
  if (group_ && sock == protocol::kSockData) {
    send(data_fd_, *group_, data);
    return;
  }
  // Unicast fan-out logical multicast (§III-D).
  for (const Peer& peer : peers_) {
    if (peer.id != self_) send(fd_of(sock), peer.addr[sock], data);
  }
}

void UdpTransport::unicast(protocol::ProcessId to, protocol::SocketId sock,
                           std::span<const std::byte> data, Nanos delay) {
  if (delay <= 0) {
    send_to(to, sock, data);
    return;
  }
  // Idle-hold: park the token briefly. A newer send supersedes the pending
  // one (the engine only ever has one outstanding token).
  pending_token_.assign(data.begin(), data.end());
  pending_token_to_ = to;
  loop_.set_timer(timer_base_ + kDelayedTokenTimer, delay, [this, sock] {
    if (pending_token_to_ == protocol::kNoProcess) return;
    send_to(pending_token_to_, sock, pending_token_);
    pending_token_to_ = protocol::kNoProcess;
  });
}

void UdpTransport::deliver(const protocol::Delivery& delivery) {
  if (deliver_) deliver_(delivery);
}

void UdpTransport::on_configuration(
    const protocol::ConfigurationChange& change) {
  if (config_) config_(change);
}

void UdpTransport::set_timer(protocol::TimerKind kind, Nanos delay) {
  assert(kind >= 0 && kind < kTimerKinds);
  loop_.set_timer(timer_base_ + kind, delay, [this, kind] {
    if (handler_ != nullptr) handler_->on_timer(kind);
  });
}

void UdpTransport::cancel_timer(protocol::TimerKind kind) {
  loop_.cancel_timer(timer_base_ + kind);
}

bool UdpTransport::read_one() {
  if (handler_ == nullptr) return false;
  const int data_fd = group_fd_ >= 0 ? group_fd_ : data_fd_;
  if (handler_->preferred_socket() == protocol::kSockToken) {
    return receive(token_fd_, protocol::kSockToken) ||
           receive(data_fd, protocol::kSockData);
  }
  return receive(data_fd, protocol::kSockData) ||
         receive(token_fd_, protocol::kSockToken);
}

bool UdpTransport::receive(int fd, protocol::SocketId sock) {
  if (handler_ == nullptr) return false;
  std::byte buf[65536];
  ssize_t n;
  do {
    n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return false;
  ++received_;
  handler_->on_packet(sock,
                      std::span<const std::byte>(buf, static_cast<size_t>(n)));
  return true;
}

Nanos UdpTransport::cpu_time() {
  struct timespec ts{};
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<Nanos>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace accelring::transport
