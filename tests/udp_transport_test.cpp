// Integration tests for the real UDP transport: engines over loopback
// sockets, all driven by a single event loop, on both data paths (multicast
// with every peer on 127.0.0.1, unicast fan-out across 127.0.0.1-3).
#include "transport/udp_transport.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <string>

#include "membership/membership.hpp"
#include "util/bytes.hpp"

namespace accelring::transport {
namespace {

using protocol::Delivery;
using protocol::ProcessId;
using protocol::Service;

/// How a test's peers are addressed: all on 127.0.0.1 (the transport
/// multicasts data) or each on its own loopback address (unicast fan-out).
enum class Mode { kMulticast, kFanOut };

/// A pid-derived block of ports, so parallel test runs rarely collide;
/// `attempt` moves to another block after a collision.
uint16_t base_port(int attempt = 0) {
  return static_cast<uint16_t>(20000 +
                               (::getpid() * 7 + attempt * 211) % 20000);
}

std::map<ProcessId, PeerAddress> make_peers(int n, uint16_t base,
                                            Mode mode = Mode::kMulticast) {
  std::map<ProcessId, PeerAddress> peers;
  for (int i = 0; i < n; ++i) {
    PeerAddress a;
    a.ip = mode == Mode::kMulticast ? "127.0.0.1"
                                    : "127.0.0." + std::to_string(i + 1);
    a.data_port = static_cast<uint16_t>(base + i * 2);
    a.token_port = static_cast<uint16_t>(base + i * 2 + 1);
    peers[static_cast<ProcessId>(i)] = a;
  }
  return peers;
}

std::map<ProcessId, PeerAddress> make_peers(int n) {
  return make_peers(n, base_port());
}

/// Sits between an engine and its transport and counts the data traffic:
/// the transport's datagrams per data multicast, and the data datagrams
/// the transport hands up.
struct Tap final : protocol::Host, protocol::PacketHandler {
  UdpTransport& transport;
  protocol::PacketHandler* engine = nullptr;
  uint64_t multicasts = 0;
  std::vector<uint64_t> datagrams_per_multicast;
  uint64_t data_received = 0;

  explicit Tap(UdpTransport& t) : transport(t) {}

  void multicast(protocol::SocketId sock,
                 std::span<const std::byte> data) override {
    const uint64_t before = transport.datagrams_sent();
    transport.multicast(sock, data);
    ++multicasts;
    datagrams_per_multicast.push_back(transport.datagrams_sent() - before);
  }
  void unicast(ProcessId to, protocol::SocketId sock,
               std::span<const std::byte> data, Nanos delay) override {
    transport.unicast(to, sock, data, delay);
  }
  void deliver(const Delivery& d) override { transport.deliver(d); }
  void on_configuration(const protocol::ConfigurationChange& c) override {
    transport.on_configuration(c);
  }
  void set_timer(protocol::TimerKind kind, Nanos delay) override {
    transport.set_timer(kind, delay);
  }
  void cancel_timer(protocol::TimerKind kind) override {
    transport.cancel_timer(kind);
  }
  Nanos now() override { return transport.now(); }
  Nanos cpu_time() override { return transport.cpu_time(); }

  void on_packet(protocol::SocketId sock,
                 std::span<const std::byte> packet) override {
    if (sock == protocol::kSockData) ++data_received;
    engine->on_packet(sock, packet);
  }
  void on_timer(protocol::TimerKind kind) override { engine->on_timer(kind); }
  [[nodiscard]] protocol::SocketId preferred_socket() const override {
    return engine->preferred_socket();
  }
};

struct UdpNode {
  std::unique_ptr<UdpTransport> transport;
  std::unique_ptr<Tap> tap;
  std::unique_ptr<protocol::Engine> engine;
  std::vector<std::pair<uint16_t, protocol::SeqNum>> delivered;
  std::vector<std::string> payloads;
};

struct UdpRing {
  EventLoop& loop;
  std::vector<UdpNode> nodes;

  UdpRing(EventLoop& l, const std::map<ProcessId, PeerAddress>& peers)
      : loop(l) {
    const int n = static_cast<int>(peers.size());
    protocol::ProtocolConfig cfg;
    cfg.timeouts.token_retransmit = util::msec(20);
    cfg.timeouts.token_loss = util::msec(500);
    nodes.resize(n);
    protocol::RingConfig ring;
    ring.ring_id = membership::make_ring_id(1, 0);
    for (int i = 0; i < n; ++i) {
      ring.members.push_back(static_cast<ProcessId>(i));
    }
    for (int i = 0; i < n; ++i) {
      auto& node = nodes[i];
      node.transport = std::make_unique<UdpTransport>(
          static_cast<ProcessId>(i), peers, loop);
      node.tap = std::make_unique<Tap>(*node.transport);
      node.engine = std::make_unique<protocol::Engine>(
          static_cast<ProcessId>(i), cfg, *node.tap);
      node.tap->engine = node.engine.get();
      node.transport->bind(*node.tap);
      node.transport->set_deliver([&node](const Delivery& d) {
        node.delivered.emplace_back(d.sender, d.seq);
        node.payloads.emplace_back(
            reinterpret_cast<const char*>(d.payload.data()), d.payload.size());
      });
    }
    // Non-representatives first so the first token finds everyone ready.
    for (int i = n - 1; i >= 0; --i) {
      nodes[i].engine->start_with_ring(ring);
    }
  }

  [[nodiscard]] bool all_delivered(size_t count) const {
    for (const auto& n : nodes) {
      if (n.delivered.size() < count) return false;
    }
    return true;
  }
};

/// A ring of `n` on its own loop, on the first port block whose ports are
/// all free: the transports bind exclusively, so a port another process
/// holds throws.
struct OwnedRing {
  EventLoop loop;
  std::unique_ptr<UdpRing> ring;

  explicit OwnedRing(int n, Mode mode = Mode::kMulticast) {
    for (int attempt = 0;; ++attempt) {
      try {
        ring = std::make_unique<UdpRing>(
            loop, make_peers(n, base_port(attempt), mode));
        return;
      } catch (const std::runtime_error&) {
        if (attempt == 20) throw;
      }
    }
  }
  UdpRing* operator->() { return ring.get(); }

  /// Run until every node delivered `count` (or 3 s worst case), then a
  /// little longer so that every datagram in flight is read.
  void run_until_delivered(size_t count) {
    for (int spin = 0; spin < 60 && !ring->all_delivered(count); ++spin) {
      loop.run_for(util::msec(50));
    }
    loop.run_for(util::msec(50));
  }
};

class UdpRingTest : public ::testing::TestWithParam<Mode> {
 protected:
  /// Submit `count` messages round-robin, run the ring to completion and
  /// check what every mode must hold.
  void run_ring(Service service, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      ring_->nodes[i % 3].engine->submit(
          service, util::to_vector(util::as_bytes("msg" + std::to_string(i))));
    }
    ring_.run_until_delivered(count);
    const auto& nodes = ring_->nodes;
    for (const auto& n : nodes) {
      ASSERT_EQ(n.delivered.size(), count);
      EXPECT_EQ(n.delivered, nodes[0].delivered);
      EXPECT_EQ(n.transport->send_drops(), 0u);
      EXPECT_EQ(n.transport->data_path().rfind(
                    GetParam() == Mode::kMulticast ? "multicast" : "unicast", 0),
                0u)
          << n.transport->data_path();
    }
    // One datagram per data multicast, or one per other member.
    const uint64_t per_multicast = GetParam() == Mode::kMulticast ? 1 : 2;
    for (const auto& n : nodes) {
      EXPECT_GE(n.tap->multicasts, count / 3);
      for (const uint64_t sent : n.tap->datagrams_per_multicast) {
        ASSERT_EQ(sent, per_multicast);
      }
    }
    // No handler sees a datagram its own node sent: each node receives
    // exactly the others' data datagrams.
    for (size_t i = 0; i < nodes.size(); ++i) {
      uint64_t others = 0;
      for (size_t j = 0; j < nodes.size(); ++j) {
        if (j != i) others += nodes[j].tap->multicasts;
      }
      EXPECT_EQ(nodes[i].tap->data_received, others) << "node " << i;
    }
  }

  OwnedRing ring_{3, GetParam()};
};

TEST_P(UdpRingTest, AgreedRingDeliversTotallyOrdered) {
  run_ring(Service::kAgreed, 30);
}

TEST_P(UdpRingTest, SafeRingDeliversTotallyOrdered) {
  run_ring(Service::kSafe, 30);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, UdpRingTest, ::testing::Values(Mode::kMulticast, Mode::kFanOut),
    [](const ::testing::TestParamInfo<Mode>& mode) {
      return mode.param == Mode::kMulticast ? "Multicast" : "FanOut";
    });

TEST(UdpTransport, RingsOnDisjointPortsInOneLoopKeepTheirOwnData) {
  // Both rings on 127.0.0.1 with the same ring id: only their group ports
  // (each ring's lowest-id data port) keep their data apart.
  EventLoop loop;
  std::vector<std::unique_ptr<UdpRing>> rings;
  for (int attempt = 0; rings.size() < 2; ++attempt) {
    try {
      rings.push_back(
          std::make_unique<UdpRing>(loop, make_peers(3, base_port(attempt))));
    } catch (const std::runtime_error&) {
      ASSERT_LT(attempt, 20);
    }
  }
  for (size_t r = 0; r < rings.size(); ++r) {
    for (int i = 0; i < 30; ++i) {
      rings[r]->nodes[i % 3].engine->submit(
          Service::kAgreed,
          util::to_vector(util::as_bytes("ring" + std::to_string(r) + "-" +
                                         std::to_string(i))));
    }
  }
  for (int spin = 0; spin < 60; ++spin) {
    loop.run_for(util::msec(50));
    if (rings[0]->all_delivered(30) && rings[1]->all_delivered(30)) break;
  }
  loop.run_for(util::msec(50));
  for (size_t r = 0; r < rings.size(); ++r) {
    const std::string own = "ring" + std::to_string(r) + "-";
    for (const auto& n : rings[r]->nodes) {
      ASSERT_EQ(n.payloads.size(), 30u);
      for (const std::string& p : n.payloads) {
        EXPECT_EQ(p.rfind(own, 0), 0u) << p;
      }
    }
  }
}

TEST(UdpTransport, SecondTransportOnTakenPortsThrows) {
  EventLoop loop;
  const auto peers = make_peers(3);
  UdpTransport first(1, peers, loop);
  EXPECT_THROW(UdpTransport(1, peers, loop), std::runtime_error);
}

TEST(UdpTransport, SingleMemberRingPassesTheTokenToItself) {
  // A lone member's successor is itself: its token travels over its own
  // token socket, so delivery needs unicast to self to reach that socket.
  OwnedRing ring(1);
  ring->nodes[0].engine->submit(Service::kAgreed,
                                util::to_vector(util::as_bytes("alone")));
  ring.run_until_delivered(1);
  EXPECT_EQ(ring->nodes[0].delivered.size(), 1u);
  EXPECT_GT(ring->nodes[0].transport->datagrams_received(), 0u);
  // Its own multicast copy is dropped before it reaches the handler.
  EXPECT_EQ(ring->nodes[0].tap->multicasts, 1u);
  EXPECT_EQ(ring->nodes[0].tap->data_received, 0u);
}

TEST(UdpTransport, CountsTraffic) {
  OwnedRing ring(2);
  ring->nodes[0].engine->submit(Service::kAgreed,
                                util::to_vector(util::as_bytes("x")));
  ring.loop.run_for(util::msec(300));
  EXPECT_GT(ring->nodes[0].transport->datagrams_sent(), 0u);
  EXPECT_GT(ring->nodes[1].transport->datagrams_received(), 0u);
}

TEST(UdpTransport, RejectsUnparseablePeerAddress) {
  EventLoop loop;
  auto peers = make_peers(3);
  peers[2].ip = "10.0.0.300";
  EXPECT_THROW(UdpTransport(0, peers, loop), std::runtime_error);
  // The same map with the address fixed is accepted.
  peers[2].ip = "127.0.0.1";
  EXPECT_NO_THROW(UdpTransport(0, peers, loop));
}

/// Records the packets and timers a transport hands it.
struct Recorder final : protocol::PacketHandler {
  std::vector<std::pair<protocol::SocketId, std::string>> packets;
  std::vector<protocol::TimerKind> fired;
  void on_packet(protocol::SocketId sock,
                 std::span<const std::byte> packet) override {
    packets.emplace_back(
        sock, std::string(reinterpret_cast<const char*>(packet.data()),
                          packet.size()));
  }
  void on_timer(protocol::TimerKind kind) override { fired.push_back(kind); }
  [[nodiscard]] protocol::SocketId preferred_socket() const override {
    return protocol::kSockData;
  }
};

TEST(UdpTransport, TransportsSharingALoopKeepTheirOwnTimers) {
  EventLoop loop;
  const auto peers = make_peers(2);
  UdpTransport a(0, peers, loop);
  UdpTransport b(1, peers, loop);
  Recorder ha;
  Recorder hb;
  a.bind(ha);
  b.bind(hb);
  a.set_timer(protocol::kTimerTokenLoss, util::msec(5));
  b.set_timer(protocol::kTimerTokenLoss, util::msec(10));
  // A caller's own small ids do not collide with the transports' either.
  bool own = false;
  loop.set_timer(protocol::kTimerTokenLoss, util::msec(5), [&] { own = true; });
  loop.run_for(util::msec(60));
  EXPECT_EQ(ha.fired,
            std::vector<protocol::TimerKind>{protocol::kTimerTokenLoss});
  EXPECT_EQ(hb.fired,
            std::vector<protocol::TimerKind>{protocol::kTimerTokenLoss});
  EXPECT_TRUE(own);

  // Cancelling one transport's timer leaves the other's armed.
  a.set_timer(protocol::kTimerJoin, util::msec(5));
  b.set_timer(protocol::kTimerJoin, util::msec(5));
  a.cancel_timer(protocol::kTimerJoin);
  loop.run_for(util::msec(40));
  EXPECT_EQ(ha.fired.size(), 1u);
  ASSERT_EQ(hb.fired.size(), 2u);
  EXPECT_EQ(hb.fired[1], protocol::kTimerJoin);
}

TEST(UdpTransport, DestroyedTransportLeavesNoTimerArmed) {
  EventLoop loop;
  const auto peers = make_peers(2);
  Recorder ha;
  Recorder hb;
  UdpTransport b(1, peers, loop);
  b.bind(hb);
  {
    UdpTransport a(0, peers, loop);
    a.bind(ha);
    a.set_timer(protocol::kTimerTokenLoss, util::msec(5));
    a.unicast(1, protocol::kSockToken,
              util::as_bytes(std::string_view("held")), util::msec(5));
  }
  b.set_timer(protocol::kTimerTokenLoss, util::msec(10));
  loop.run_for(util::msec(40));
  EXPECT_TRUE(ha.fired.empty());
  EXPECT_EQ(hb.fired,
            std::vector<protocol::TimerKind>{protocol::kTimerTokenLoss});
}

TEST(UdpTransport, UnicastDataReachesThePeerInMulticastMode) {
  // The ring engine only multicasts data, but a Host may unicast on the
  // data socket (the baselines do): that must reach the peer's handler as
  // data too, next to the group's traffic.
  EventLoop loop;
  const auto peers = make_peers(2);
  UdpTransport a(0, peers, loop);
  UdpTransport b(1, peers, loop);
  ASSERT_EQ(a.data_path().rfind("multicast", 0), 0u);
  Recorder ha;
  Recorder hb;
  a.bind(ha);
  b.bind(hb);
  a.unicast(1, protocol::kSockData, util::as_bytes(std::string_view("one")),
            0);
  a.multicast(protocol::kSockData, util::as_bytes(std::string_view("all")));
  loop.run_for(util::msec(20));
  std::sort(hb.packets.begin(), hb.packets.end());
  using Packets = std::vector<std::pair<protocol::SocketId, std::string>>;
  EXPECT_EQ(hb.packets, (Packets{{protocol::kSockData, "all"},
                                 {protocol::kSockData, "one"}}));
  EXPECT_TRUE(ha.packets.empty());
}

TEST(EventLoopTest, ReservedTimerIdsAreDisjoint) {
  EventLoop loop;
  const int a = loop.reserve_timer_ids(17);
  const int b = loop.reserve_timer_ids(17);
  EXPECT_GE(a, EventLoop::kFirstReservedTimerId);
  EXPECT_GE(b, a + 17);
}

TEST(EventLoopTest, TimersFireInOrder) {
  EventLoop loop;
  std::vector<int> fired;
  loop.set_timer(1, util::msec(30), [&] { fired.push_back(1); });
  loop.set_timer(2, util::msec(10), [&] {
    fired.push_back(2);
    loop.set_timer(3, util::msec(5), [&] { fired.push_back(3); });
  });
  loop.run_for(util::msec(100));
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], 2);
  EXPECT_EQ(fired[1], 3);
  EXPECT_EQ(fired[2], 1);
}

TEST(EventLoopTest, CancelTimerPreventsFire) {
  EventLoop loop;
  bool fired = false;
  loop.set_timer(1, util::msec(10), [&] { fired = true; });
  loop.cancel_timer(1);
  loop.run_for(util::msec(50));
  EXPECT_FALSE(fired);
}

TEST(EventLoopTest, RearmReplacesDeadline) {
  EventLoop loop;
  int count = 0;
  loop.set_timer(1, util::msec(5), [&] { ++count; });
  loop.set_timer(1, util::msec(20), [&] { ++count; });
  loop.run_for(util::msec(60));
  EXPECT_EQ(count, 1);
}

TEST(EventLoopTest, TimerCancelledEarlierInTheSameBatchDoesNotFire) {
  EventLoop loop;
  std::vector<int> fired;
  // Both are due in the same pass; timer 1 runs first and cancels timer 2.
  loop.set_timer(1, 0, [&] {
    fired.push_back(1);
    loop.cancel_timer(2);
  });
  loop.set_timer(2, 0, [&] { fired.push_back(2); });
  loop.run_for(util::msec(20));
  EXPECT_EQ(fired, std::vector<int>{1});
}

TEST(EventLoopTest, TimerRearmedEarlierInTheSameBatchFiresItsNewCallback) {
  EventLoop loop;
  std::vector<int> fired;
  loop.set_timer(1, 0, [&] {
    fired.push_back(1);
    loop.set_timer(2, util::msec(5), [&] { fired.push_back(22); });
  });
  loop.set_timer(2, 0, [&] { fired.push_back(2); });
  loop.run_for(util::msec(40));
  EXPECT_EQ(fired, (std::vector<int>{1, 22}));
}

/// A pipe whose read end is readable once `fill()` wrote a byte.
struct Pipe {
  std::array<int, 2> fds{-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds.data()), 0); }
  ~Pipe() {
    ::close(fds[0]);
    ::close(fds[1]);
  }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;
  [[nodiscard]] int read_end() const { return fds[0]; }
  void fill() const { ASSERT_EQ(::write(fds[1], "x", 1), 1); }
  void drain() const {
    char byte = 0;
    ASSERT_EQ(::read(fds[0], &byte, 1), 1);
  }
};

TEST(EventLoopTest, FdCallbacksFollowTheirFdWhileOthersAreAddedAndRemoved) {
  EventLoop loop;
  Pipe a, b, c;
  std::array<Pipe, 32> extra;
  std::vector<std::string> ran;
  a.fill();
  b.fill();
  const std::string a_name = "a";
  // A removes itself and adds enough fds to reallocate the handler table
  // while its own callback runs; then it reads its capture.
  loop.add_fd(a.read_end(), [&, a_name] {
    a.drain();
    loop.remove_fd(a.read_end());
    for (const Pipe& p : extra) loop.add_fd(p.read_end(), [] {});
    ran.push_back(a_name);
  });
  loop.add_fd(b.read_end(), [&] {
    b.drain();
    ran.push_back("b");
  });
  loop.add_fd(c.read_end(), [&] { ran.push_back("c"); });  // never readable
  loop.run_for(util::msec(20));
  EXPECT_EQ(ran, (std::vector<std::string>{"a", "b"}));
}

TEST(EventLoopTest, HandlerOnAReusedFdNumberWaitsForTheNextPoll) {
  EventLoop loop;
  Pipe a;
  auto b = std::make_unique<Pipe>();
  std::vector<std::string> ran;
  int reused = -1;
  a.fill();
  b->fill();
  // A closes B, whose read end was ready, and registers a fresh pipe that
  // gets B's fd number back. Its readiness was never polled, and the new
  // pipe is empty, so its handler must not run.
  loop.add_fd(a.read_end(), [&] {
    a.drain();
    loop.remove_fd(b->read_end());
    const int old_fd = b->read_end();
    b.reset();
    b = std::make_unique<Pipe>();
    if (b->read_end() == old_fd) reused = old_fd;
    loop.add_fd(b->read_end(), [&] { ran.push_back("new b"); });
    ran.push_back("a");
  });
  loop.add_fd(b->read_end(), [&] { ran.push_back("old b"); });
  loop.run_for(util::msec(20));
  ASSERT_GE(reused, 0) << "the fresh pipe did not reuse B's fd number";
  EXPECT_EQ(ran, std::vector<std::string>{"a"});
}

}  // namespace
}  // namespace accelring::transport
