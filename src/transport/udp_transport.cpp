#include "transport/udp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <linux/filter.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <sys/socket.h>
#include <sys/uio.h>
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
// loop: one per protocol TimerKind.
constexpr int kTimerKinds = 16;

// A batch's bounds: the kernel takes at most 64 segments in one UDP_SEGMENT
// send on every kernel that has it, and at most one IP datagram's worth
// (64 KB less the headers) in all.
constexpr int kMaxSegments = 64;
constexpr size_t kMaxBatchBytes = 60 * 1024;

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
  // A segmented burst then queues as one buffer, not one per datagram.
  const int one = 1;
  set_option(fd, SOL_UDP, UDP_GRO, &one, sizeof(one), "UDP_GRO");
}

}  // namespace

UdpTransport::UdpTransport(protocol::ProcessId self,
                           std::map<protocol::ProcessId, PeerAddress> peers,
                           EventLoop& loop)
    : self_(self),
      loop_(loop),
      timer_base_(loop.reserve_timer_ids(kTimerKinds)) {
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
  for (int id = 0; id < kTimerKinds; ++id) {
    loop_.cancel_timer(timer_base_ + id);
  }
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
  const bool ok = n == static_cast<ssize_t>(data.size());
  if (fd == data_fd_) {
    ++data_calls_;
    if (ok) ++data_sent_;
  }
  // UDP gives no delivery guarantee anyway, so a full socket buffer
  // (EAGAIN), an unreachable peer, or a short write is exactly a dropped
  // datagram: count it and move on — the ring's retransmission machinery is
  // the recovery path, not the syscall return code.
  if (ok) {
    ++sent_;
  } else {
    ++send_drops_;
  }
}

template <typename Fn>
void UdpTransport::dispatch(Fn&& fn) {
  dispatching_ = true;
  fn();
  dispatching_ = false;
  flush_data();
}

void UdpTransport::queue_data(std::span<const std::byte> data) {
  if (batched_ > 0 &&
      (data.size() > segment_ || batched_ == kMaxSegments ||
       batch_.size() + data.size() > kMaxBatchBytes)) {
    flush_data();
  }
  if (batched_ == 0) segment_ = data.size();
  batch_.insert(batch_.end(), data.begin(), data.end());
  ++batched_;
  // Only the last segment of a batch may be short.
  if (data.size() < segment_) flush_data();
}

void UdpTransport::flush_data() {
  if (batched_ == 0) return;
  if (batched_ == 1) {
    send(data_fd_, *group_, batch_);
  } else {
    iovec iov{batch_.data(), batch_.size()};
    alignas(cmsghdr) char control[CMSG_SPACE(sizeof(uint16_t))] = {};
    msghdr msg{};
    msg.msg_name = &*group_;
    msg.msg_namelen = sizeof(*group_);
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = control;
    msg.msg_controllen = sizeof(control);
    cmsghdr* cm = CMSG_FIRSTHDR(&msg);
    cm->cmsg_level = SOL_UDP;
    cm->cmsg_type = UDP_SEGMENT;
    cm->cmsg_len = CMSG_LEN(sizeof(uint16_t));
    const auto size = static_cast<uint16_t>(segment_);
    std::memcpy(CMSG_DATA(cm), &size, sizeof(size));
    ssize_t n;
    do {
      n = ::sendmsg(data_fd_, &msg, 0);
    } while (n < 0 && errno == EINTR);
    ++data_calls_;
    if (n == static_cast<ssize_t>(batch_.size())) {
      sent_ += static_cast<uint64_t>(batched_);
      data_sent_ += static_cast<uint64_t>(batched_);
    } else if (n < 0 && (errno == EINVAL || errno == EIO)) {
      // A route that cannot segment (say, a shared address whose MTU is
      // below the segment size): the datagrams go one by one instead.
      const std::span<const std::byte> all(batch_);
      for (size_t off = 0; off < all.size(); off += segment_) {
        send(data_fd_, *group_,
             all.subspan(off, std::min(segment_, all.size() - off)));
      }
    } else {
      send_drops_ += static_cast<uint64_t>(batched_);
    }
  }
  batch_.clear();
  batched_ = 0;
}

void UdpTransport::multicast(protocol::SocketId sock,
                             std::span<const std::byte> data) {
  if (group_ && sock == protocol::kSockData) {
    if (dispatching_) {
      queue_data(data);
    } else {
      send(data_fd_, *group_, data);
    }
    return;
  }
  // Unicast fan-out logical multicast (§III-D).
  flush_data();
  for (const Peer& peer : peers_) {
    if (peer.id != self_) send(fd_of(sock), peer.addr[sock], data);
  }
}

void UdpTransport::unicast(protocol::ProcessId to, protocol::SocketId sock,
                           std::span<const std::byte> data, Nanos /*delay*/) {
  // Queued data precedes whatever follows it on the wire: pre-token data
  // stays ahead of the token.
  flush_data();
  send_to(to, sock, data);
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
    if (handler_ != nullptr) dispatch([&] { handler_->on_timer(kind); });
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
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))];
  iovec iov{buf, sizeof(buf)};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control;
  msg.msg_controllen = sizeof(control);
  ssize_t n;
  do {
    n = ::recvmsg(fd, &msg, MSG_DONTWAIT);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return false;
  const auto size = static_cast<size_t>(n);
  // A coalesced read says its segment size; without one it is one datagram.
  size_t segment = size;
  for (cmsghdr* cm = CMSG_FIRSTHDR(&msg); cm != nullptr;
       cm = CMSG_NXTHDR(&msg, cm)) {
    if (cm->cmsg_level == SOL_UDP && cm->cmsg_type == UDP_GRO) {
      int gro = 0;
      std::memcpy(&gro, CMSG_DATA(cm), sizeof(gro));
      if (gro > 0) segment = static_cast<size_t>(gro);
    }
  }
  for (size_t off = 0; off < size; off += segment) {
    if (off > 0) {
      while (handler_->preferred_socket() == protocol::kSockToken &&
             receive(token_fd_, protocol::kSockToken)) {
      }
    }
    ++received_;
    const std::span<const std::byte> datagram(buf + off,
                                              std::min(segment, size - off));
    dispatch([&] { handler_->on_packet(sock, datagram); });
  }
  return true;
}

Nanos UdpTransport::cpu_time() {
  struct timespec ts{};
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<Nanos>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace accelring::transport
