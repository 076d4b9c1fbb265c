// Integration tests for the real UDP transport: engines over loopback
// sockets, all driven by a single event loop.
#include "transport/udp_transport.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <memory>
#include <stdexcept>
#include <string>

#include "membership/membership.hpp"
#include "util/bytes.hpp"

namespace accelring::transport {
namespace {

using protocol::Delivery;
using protocol::Service;

/// Ports derived from the test pid so parallel test runs do not collide.
uint16_t base_port() {
  return static_cast<uint16_t>(20000 + (::getpid() % 20000));
}

std::map<protocol::ProcessId, PeerAddress> make_peers(int n) {
  std::map<protocol::ProcessId, PeerAddress> peers;
  const uint16_t base = base_port();
  for (int i = 0; i < n; ++i) {
    PeerAddress a;
    a.ip = "127.0.0.1";
    a.data_port = static_cast<uint16_t>(base + i * 2);
    a.token_port = static_cast<uint16_t>(base + i * 2 + 1);
    peers[static_cast<protocol::ProcessId>(i)] = a;
  }
  return peers;
}

struct UdpNode {
  std::unique_ptr<UdpTransport> transport;
  std::unique_ptr<protocol::Engine> engine;
  std::vector<std::pair<uint16_t, protocol::SeqNum>> delivered;
};

struct UdpRing {
  EventLoop loop;
  std::vector<UdpNode> nodes;

  explicit UdpRing(int n) {
    const auto peers = make_peers(n);
    protocol::ProtocolConfig cfg;
    cfg.timeouts.token_retransmit = util::msec(20);
    cfg.timeouts.token_loss = util::msec(500);
    nodes.resize(n);
    protocol::RingConfig ring;
    ring.ring_id = membership::make_ring_id(1, 0);
    for (int i = 0; i < n; ++i) {
      ring.members.push_back(static_cast<protocol::ProcessId>(i));
    }
    for (int i = 0; i < n; ++i) {
      auto& node = nodes[i];
      node.transport = std::make_unique<UdpTransport>(
          static_cast<protocol::ProcessId>(i), peers, loop);
      node.engine = std::make_unique<protocol::Engine>(
          static_cast<protocol::ProcessId>(i), cfg, *node.transport);
      node.transport->bind(*node.engine);
      node.transport->set_deliver([&node](const Delivery& d) {
        node.delivered.emplace_back(d.sender, d.seq);
      });
    }
    // Non-representatives first so the first token finds everyone ready.
    for (int i = n - 1; i >= 0; --i) {
      nodes[i].engine->start_with_ring(ring);
    }
  }
};

TEST(UdpTransport, ThreeNodeRingDeliversTotallyOrdered) {
  UdpRing ring(3);
  for (int i = 0; i < 30; ++i) {
    ring.nodes[i % 3].engine->submit(
        Service::kAgreed,
        util::to_vector(util::as_bytes("msg" + std::to_string(i))));
  }
  // Run until everyone has everything (or 3 s worst case).
  for (int spin = 0; spin < 60; ++spin) {
    ring.loop.run_for(util::msec(50));
    bool done = true;
    for (const auto& n : ring.nodes) done = done && n.delivered.size() >= 30;
    if (done) break;
  }
  for (const auto& n : ring.nodes) {
    ASSERT_EQ(n.delivered.size(), 30u);
  }
  EXPECT_EQ(ring.nodes[1].delivered, ring.nodes[0].delivered);
  EXPECT_EQ(ring.nodes[2].delivered, ring.nodes[0].delivered);
}

TEST(UdpTransport, SafeDeliveryWorksOverRealSockets) {
  UdpRing ring(2);
  ring.nodes[0].engine->submit(Service::kSafe,
                               util::to_vector(util::as_bytes("stable")));
  for (int spin = 0; spin < 60; ++spin) {
    ring.loop.run_for(util::msec(50));
    if (ring.nodes[0].delivered.size() == 1 &&
        ring.nodes[1].delivered.size() == 1) {
      break;
    }
  }
  EXPECT_EQ(ring.nodes[0].delivered.size(), 1u);
  EXPECT_EQ(ring.nodes[1].delivered.size(), 1u);
}

TEST(UdpTransport, SingleMemberRingPassesTheTokenToItself) {
  // A lone member's successor is itself: its token travels over its own
  // token socket, so delivery needs unicast to self to reach that socket.
  UdpRing ring(1);
  ring.nodes[0].engine->submit(Service::kAgreed,
                               util::to_vector(util::as_bytes("alone")));
  for (int spin = 0; spin < 60 && ring.nodes[0].delivered.empty(); ++spin) {
    ring.loop.run_for(util::msec(50));
  }
  EXPECT_EQ(ring.nodes[0].delivered.size(), 1u);
  EXPECT_GT(ring.nodes[0].transport->datagrams_received(), 0u);
}

TEST(UdpTransport, CountsTraffic) {
  UdpRing ring(2);
  ring.nodes[0].engine->submit(Service::kAgreed,
                               util::to_vector(util::as_bytes("x")));
  ring.loop.run_for(util::msec(300));
  EXPECT_GT(ring.nodes[0].transport->datagrams_sent(), 0u);
  EXPECT_GT(ring.nodes[1].transport->datagrams_received(), 0u);
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

/// Records the timers a transport fires at it.
struct TimerRecorder final : protocol::PacketHandler {
  std::vector<protocol::TimerKind> fired;
  void on_packet(protocol::SocketId, std::span<const std::byte>) override {}
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
  TimerRecorder ha;
  TimerRecorder hb;
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
  TimerRecorder ha;
  TimerRecorder hb;
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
