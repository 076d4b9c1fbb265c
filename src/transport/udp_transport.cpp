#include "transport/udp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <ctime>
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

int make_udp_socket(const std::string& ip, uint16_t port) {
  sockaddr_in addr = resolve(ip, port);
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Size both buffers explicitly: a high-rate ring bursts a full token
  // round's worth of datagrams at once, and the kernel defaults (often a few
  // hundred KB) silently drop the tail of each burst on both directions.
  const int buf = 4 * 1024 * 1024;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("bind() failed on " + ip + ":" +
                             std::to_string(port));
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
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
  data_fd_ = make_udp_socket(it->second.ip, it->second.data_port);
  token_fd_ = make_udp_socket(it->second.ip, it->second.token_port);
  loop_.add_fd(data_fd_, [this] { on_readable(protocol::kSockData); });
  loop_.add_fd(token_fd_, [this] { on_readable(protocol::kSockToken); });
}

UdpTransport::~UdpTransport() {
  for (int id = 0; id < kTimerIds; ++id) loop_.cancel_timer(timer_base_ + id);
  loop_.remove_fd(data_fd_);
  loop_.remove_fd(token_fd_);
  if (data_fd_ >= 0) ::close(data_fd_);
  if (token_fd_ >= 0) ::close(token_fd_);
}

void UdpTransport::send_to(protocol::ProcessId to, protocol::SocketId sock,
                           std::span<const std::byte> data) {
  const auto it = std::find_if(peers_.begin(), peers_.end(),
                               [to](const Peer& p) { return p.id == to; });
  if (it == peers_.end()) return;
  send_to(*it, sock, data);
}

void UdpTransport::send_to(const Peer& peer, protocol::SocketId sock,
                           std::span<const std::byte> data) {
  const sockaddr_in& addr = peer.addr[sock];
  // Send from the matching socket so replies/captures look sane.
  const int fd = sock == protocol::kSockToken ? token_fd_ : data_fd_;
  ssize_t n;
  do {
    n = ::sendto(fd, data.data(), data.size(), 0,
                 reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
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
  // Unicast fan-out logical multicast (§III-D).
  for (const Peer& peer : peers_) {
    if (peer.id != self_) send_to(peer, sock, data);
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

void UdpTransport::on_readable(protocol::SocketId) {
  // Drain everything available, re-checking priority between datagrams.
  while (read_one()) {
  }
}

bool UdpTransport::read_one() {
  if (handler_ == nullptr) return false;
  const protocol::SocketId preferred = handler_->preferred_socket();
  const int order[2] = {
      preferred == protocol::kSockToken ? token_fd_ : data_fd_,
      preferred == protocol::kSockToken ? data_fd_ : token_fd_};
  std::byte buf[65536];
  for (const int fd : order) {
    ssize_t n;
    do {
      n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    } while (n < 0 && errno == EINTR);
    if (n > 0) {
      ++received_;
      handler_->on_packet(fd == token_fd_ ? protocol::kSockToken
                                         : protocol::kSockData,
                         std::span<const std::byte>(buf, static_cast<size_t>(n)));
      return true;
    }
  }
  return false;
}

Nanos UdpTransport::cpu_time() {
  struct timespec ts{};
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<Nanos>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace accelring::transport
