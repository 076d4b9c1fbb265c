// Integration tests for the real UDP transport and its event loop: engines
// over loopback sockets in transport::LoopbackRings, all driven by a single
// event loop, on both data paths (multicast with every peer on 127.0.0.1,
// unicast fan-out across 127.0.0.1-3).
#include "transport/udp_transport.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>

#include "check/oracle.hpp"
#include "delivery_order.hpp"
#include "harness/workload.hpp"
#include "protocol/wire.hpp"
#include "transport/loopback_ring.hpp"
#include "util/bytes.hpp"

namespace accelring::transport {
namespace {

using protocol::Delivery;
using protocol::ProcessId;
using protocol::Service;

using Addresses = LoopbackRing::Addresses;

/// Sits between an engine and its transport and counts the data traffic:
/// the data multicasts, the application messages they carry, and the data
/// datagrams the transport hands up. It also loses token sends on request.
struct Tap final : LoopbackRing::Shim {
  UdpTransport& transport;
  uint64_t multicasts = 0;
  uint64_t messages = 0;  ///< application messages multicast (packed: each)
  uint64_t data_received = 0;
  int tokens_to_drop = 0;  ///< the next token sends that never leave

  explicit Tap(UdpTransport& t) : transport(t) {}

  void multicast(protocol::SocketId sock,
                 std::span<const std::byte> data) override {
    transport.multicast(sock, data);
    ++multicasts;
    if (const auto msg = protocol::decode_data(data)) {
      if (!msg->packed) {
        ++messages;
        return;
      }
      util::Reader frames(msg->payload);
      while (frames.remaining() > 0) {
        (void)frames.bytes();
        if (!frames.ok()) break;
        ++messages;
      }
    }
  }
  void unicast(ProcessId to, protocol::SocketId sock,
               std::span<const std::byte> data, Nanos delay) override {
    if (sock == protocol::kSockToken && tokens_to_drop > 0) {
      --tokens_to_drop;
      return;
    }
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

/// What one node of a TappedRing delivered.
struct Log {
  std::vector<std::tuple<uint16_t, protocol::SeqNum, uint32_t>> delivered;
  std::vector<std::string> payloads;
  int configs = 0;  ///< configurations installed
};

/// A started LoopbackRing of `n` whose engines sit on Taps, whose nodes log
/// what they deliver, and whose streams feed an EVS oracle.
struct TappedRing {
  EventLoop& loop;
  std::vector<std::unique_ptr<Tap>> taps;
  std::vector<Log> logs;
  check::ClusterOracle oracle;
  LoopbackRing ring;

  TappedRing(EventLoop& l, int n, Addresses addresses = Addresses::kShared)
      : loop(l),
        logs(static_cast<size_t>(n)),
        oracle(n),
        ring(l, n, ring_config(), addresses,
             [this](UdpTransport& t) -> LoopbackRing::Shim& {
               return *taps.emplace_back(std::make_unique<Tap>(t));
             }) {
    for (int i = 0; i < n; ++i) {
      Log& log = logs[static_cast<size_t>(i)];
      ring.set_deliver(i, [this, i, &log](const Delivery& d) {
        oracle.on_deliver(i, d);
        log.delivered.emplace_back(d.sender, d.seq, d.part);
        log.payloads.emplace_back(
            reinterpret_cast<const char*>(d.payload.data()), d.payload.size());
      });
      ring.set_config(
          i, [this, i, &log](const protocol::ConfigurationChange& c) {
            oracle.on_config(i, c);
            ++log.configs;
          });
    }
    ring.start();
  }

  static protocol::ProtocolConfig ring_config() {
    protocol::ProtocolConfig cfg;
    cfg.timeouts.token_retransmit = util::msec(20);
    return cfg;
  }

  [[nodiscard]] bool all_delivered(size_t count) const {
    return std::all_of(logs.begin(), logs.end(), [count](const Log& log) {
      return log.delivered.size() >= count;
    });
  }

  /// Run until every node delivered `count` (or 3 s worst case), then a
  /// little longer so that every datagram in flight is read.
  void run_until_delivered(size_t count) {
    for (int spin = 0; spin < 60 && !all_delivered(count); ++spin) {
      loop.run_for(util::msec(50));
    }
    loop.run_for(util::msec(50));
  }
};

/// The peer map of a LoopbackRing of `n` that was built and torn down just
/// now: its ports were free a moment ago, for tests that bind transports of
/// their own.
std::map<ProcessId, PeerAddress> free_peers(int n) {
  EventLoop loop;
  return LoopbackRing(loop, n, protocol::ProtocolConfig{}).peers();
}

class UdpRingTest : public ::testing::TestWithParam<Addresses> {
 protected:
  /// Submit `count` messages round-robin, message i at `service_of(i)`, run
  /// the ring to completion and check what every mode must hold.
  void run_ring(size_t count,
                const std::function<Service(size_t)>& service_of) {
    for (size_t i = 0; i < count; ++i) {
      ring_.ring.engine(static_cast<int>(i % 3))
          .submit(service_of(i),
                  util::to_vector(util::as_bytes("msg" + std::to_string(i))));
    }
    ring_.run_until_delivered(count);
    // Each node multicast its own messages, packed (fewer multicasts than
    // messages); one datagram per data multicast, or one per other member.
    // A batch leaves at its flush, not in the multicast call that queued
    // it, so the property holds for the totals.
    const bool shared = GetParam() == Addresses::kShared;
    const auto& logs = ring_.logs;
    const auto& taps = ring_.taps;
    for (int i = 0; i < 3; ++i) {
      const Log& log = logs[static_cast<size_t>(i)];
      const Tap& tap = *taps[static_cast<size_t>(i)];
      const UdpTransport& t = ring_.ring.transport(i);
      ASSERT_EQ(log.delivered.size(), count);
      EXPECT_EQ(log.delivered, logs[0].delivered);
      EXPECT_EQ(t.send_drops(), 0u);
      EXPECT_EQ(t.data_path().rfind(shared ? "multicast" : "unicast", 0), 0u)
          << t.data_path();
      EXPECT_GE(tap.messages, count / 3);
      EXPECT_LT(tap.multicasts, tap.messages);
      EXPECT_EQ(t.data_datagrams_sent(), (shared ? 1 : 2) * tap.multicasts);
      EXPECT_LE(t.data_send_calls(), t.data_datagrams_sent());
    }
    std::vector<protocol::SeqPart> order;
    for (const auto& [sender, seq, part] : logs[0].delivered) {
      order.emplace_back(seq, part);
    }
    EXPECT_TRUE(protocol::gap_free(order));
    // No handler sees a datagram its own node sent: each node receives
    // exactly the others' data datagrams.
    for (size_t i = 0; i < taps.size(); ++i) {
      uint64_t others = 0;
      for (size_t j = 0; j < taps.size(); ++j) {
        if (j != i) others += taps[j]->multicasts;
      }
      EXPECT_EQ(taps[i]->data_received, others) << "node " << i;
    }
    ring_.oracle.finalize();
    EXPECT_TRUE(ring_.oracle.ok()) << ring_.oracle.report();
  }

  EventLoop loop_;
  TappedRing ring_{loop_, 3, GetParam()};
};

TEST_P(UdpRingTest, AgreedRingDeliversTotallyOrdered) {
  run_ring(30, [](size_t) { return Service::kAgreed; });
}

TEST_P(UdpRingTest, SafeRingDeliversTotallyOrdered) {
  run_ring(30, [](size_t) { return Service::kSafe; });
}

std::string mode_name(const ::testing::TestParamInfo<Addresses>& mode) {
  return mode.param == Addresses::kShared ? "Multicast" : "FanOut";
}

INSTANTIATE_TEST_SUITE_P(Modes, UdpRingTest,
                         ::testing::Values(Addresses::kShared,
                                           Addresses::kPerNode),
                         mode_name);

/// Rings long enough to wrap every node's receive buffer many times.
class UdpRingWrapTest : public UdpRingTest {};

TEST_P(UdpRingWrapTest, MixedRingWrapsTheReceiveBufferAndStaysGapFree) {
  // Each node's queue alternates Agreed and Safe every two messages, so
  // pairs pack and a service change ends each packet: about 1500 seqs,
  // many times the receive buffer's initial slots.
  run_ring(3000, [](size_t i) {
    return (i / 6) % 2 == 0 ? Service::kAgreed : Service::kSafe;
  });
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(ring_.ring.engine(i).local_aru(),
              static_cast<protocol::SeqNum>(
                  8 * protocol::RecvBuffer::kInitialSlots));
  }
}

INSTANTIATE_TEST_SUITE_P(Multicast, UdpRingWrapTest,
                         ::testing::Values(Addresses::kShared), mode_name);

TEST(UdpTransport, RingsOnDisjointPortsInOneLoopKeepTheirOwnData) {
  // Both rings on 127.0.0.1 with the same ring id: only their group ports
  // (each ring's lowest-id data port) keep their data apart. The second
  // ring finds the first's port block taken and binds the next.
  EventLoop loop;
  std::array<TappedRing, 2> rings{TappedRing(loop, 3), TappedRing(loop, 3)};
  for (size_t r = 0; r < rings.size(); ++r) {
    for (int i = 0; i < 30; ++i) {
      rings[r].ring.engine(i % 3).submit(
          Service::kAgreed,
          util::to_vector(util::as_bytes("ring" + std::to_string(r) + "-" +
                                         std::to_string(i))));
    }
  }
  for (int spin = 0; spin < 60; ++spin) {
    loop.run_for(util::msec(50));
    if (rings[0].all_delivered(30) && rings[1].all_delivered(30)) break;
  }
  loop.run_for(util::msec(50));
  for (size_t r = 0; r < rings.size(); ++r) {
    const std::string own = "ring" + std::to_string(r) + "-";
    for (const Log& log : rings[r].logs) {
      ASSERT_EQ(log.payloads.size(), 30u);
      for (const std::string& p : log.payloads) {
        EXPECT_EQ(p.rfind(own, 0), 0u) << p;
      }
    }
  }
}

TEST(UdpTransport, SecondTransportOnTakenPortsThrows) {
  EventLoop loop;
  LoopbackRing ring(loop, 3, protocol::ProtocolConfig{});
  EXPECT_THROW(UdpTransport(1, ring.peers(), loop), std::runtime_error);
}

TEST(UdpTransport, SingleMemberRingPassesTheTokenToItself) {
  // A lone member's successor is itself: its token travels over its own
  // token socket, so delivery needs unicast to self to reach that socket.
  EventLoop loop;
  TappedRing ring(loop, 1);
  ring.ring.engine(0).submit(Service::kAgreed,
                             util::to_vector(util::as_bytes("alone")));
  ring.run_until_delivered(1);
  EXPECT_EQ(ring.logs[0].delivered.size(), 1u);
  EXPECT_GT(ring.ring.transport(0).datagrams_received(), 0u);
  // Its own multicast copy is dropped before it reaches the handler.
  EXPECT_EQ(ring.taps[0]->multicasts, 1u);
  EXPECT_EQ(ring.taps[0]->data_received, 0u);
}

TEST(UdpTransport, CountsTraffic) {
  EventLoop loop;
  TappedRing ring(loop, 2);
  ring.ring.engine(0).submit(Service::kAgreed,
                             util::to_vector(util::as_bytes("x")));
  loop.run_for(util::msec(300));
  EXPECT_GT(ring.ring.transport(0).datagrams_sent(), 0u);
  EXPECT_GT(ring.ring.transport(1).datagrams_received(), 0u);
}

TEST(LoopbackRingTest, PausedDriverIsNotTokenLoss) {
  // The one thread that drives the ring stops for 150 ms, longer than the
  // token-loss timeout (the 100 ms base when cold, about 40 ms plus one
  // back-off once warm), five times under Agreed and Safe load. The network
  // lost nothing, so the ring must not reform: every node installs only its
  // first configuration, all deliver the same messages, and the EVS oracle
  // finds nothing.
  EventLoop loop;
  TappedRing ring(loop, 3);
  size_t submitted = 0;
  for (uint32_t index = 0; index < 200; ++index) {
    for (int i = 0; i < 3; ++i) {
      const harness::PayloadStamp stamp{loop.now(), static_cast<uint32_t>(i),
                                        index};
      if (ring.ring.engine(i).submit(
              index % 2 == 0 ? Service::kAgreed : Service::kSafe,
              harness::make_payload(200, stamp))) {
        ring.oracle.note_submit(i, index);
        ++submitted;
      }
    }
    if (index % 40 == 39) {
      loop.run_for(util::msec(5));
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }
  }
  ring.run_until_delivered(submitted);
  ring.oracle.finalize();
  EXPECT_TRUE(ring.oracle.ok()) << ring.oracle.report();
  for (const Log& log : ring.logs) {
    EXPECT_EQ(log.configs, 1);
    EXPECT_EQ(log.delivered, ring.logs[0].delivered);
  }
  EXPECT_EQ(ring.logs[0].delivered.size(), submitted);
}

TEST(LoopbackRingTest, ThreeLostTokenSendsOnOneHopAreNotTokenLoss) {
  // Under Agreed and Safe load, node 1 loses its next three token sends,
  // its retransmissions included, so the ring falls silent for three
  // token-retransmit intervals (60 ms): longer than the warm token-loss
  // timeout (about 40 ms), shorter than that plus its one back-off. The
  // members are alive, so the ring must keep its one configuration.
  EventLoop loop;
  TappedRing ring(loop, 3);
  size_t submitted = 0;
  for (uint32_t index = 0; index < 200; ++index) {
    for (int i = 0; i < 3; ++i) {
      const harness::PayloadStamp stamp{loop.now(), static_cast<uint32_t>(i),
                                        index};
      if (ring.ring.engine(i).submit(
              index % 2 == 0 ? Service::kAgreed : Service::kSafe,
              harness::make_payload(200, stamp))) {
        ring.oracle.note_submit(i, index);
        ++submitted;
      }
    }
    if (index == 100) ring.taps[1]->tokens_to_drop = 3;
    loop.run_for(util::msec(1));
  }
  ring.run_until_delivered(submitted);
  ring.oracle.finalize();
  EXPECT_TRUE(ring.oracle.ok()) << ring.oracle.report();
  EXPECT_EQ(ring.taps[1]->tokens_to_drop, 0);
  EXPECT_GE(ring.ring.engine(1).stats().token_retransmits, 3u);
  for (const Log& log : ring.logs) {
    EXPECT_EQ(log.configs, 1);
    EXPECT_EQ(log.delivered, ring.logs[0].delivered);
  }
  EXPECT_EQ(ring.logs[0].delivered.size(), submitted);
}

/// Tokens handled by every node of `ring` so far.
uint64_t tokens_handled(LoopbackRing& ring) {
  uint64_t n = 0;
  for (int i = 0; i < ring.size(); ++i) {
    n += ring.engine(i).stats().tokens_handled;
  }
  return n;
}

TEST(LoopbackRingTest, IdleRingHoldsTheTokenAtEveryVisit) {
  // The hold bounds an idle ring's CPU: each visit keeps the token for
  // idle_token_hold, so the ring handles at most one token per hold.
  EventLoop loop;
  TappedRing ring(loop, 3);
  loop.run_for(util::msec(50));
  const uint64_t before = tokens_handled(ring.ring);
  const util::Nanos from = loop.now();
  loop.run_for(util::sec(1));
  const uint64_t handled = tokens_handled(ring.ring) - before;
  const util::Nanos hold =
      ring.ring.engine(0).config().timeouts.idle_token_hold;
  EXPECT_GT(handled, 0u);
  EXPECT_LE(handled, static_cast<uint64_t>((loop.now() - from) / hold) + 1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(ring.ring.engine(i).stats().hold_cancels, 0u);
  }
}

TEST(LoopbackRingTest, SubmitsInIdleGapsWakeTheHeldToken) {
  // One message at a time, each into an idle ring: its submit cancels the
  // holds, and every node delivers every message in one order.
  EventLoop loop;
  TappedRing ring(loop, 3);
  loop.run_for(util::msec(20));
  uint32_t submitted = 0;
  for (uint32_t index = 0; index < 60; ++index) {
    const int node = static_cast<int>(index % 3);
    const harness::PayloadStamp stamp{loop.now(), static_cast<uint32_t>(node),
                                      index};
    ASSERT_TRUE(ring.ring.engine(node).submit(
        index % 2 == 0 ? Service::kAgreed : Service::kSafe,
        harness::make_payload(200, stamp)));
    ring.oracle.note_submit(node, index);
    ++submitted;
    loop.run_for(util::msec(3));
  }
  ring.run_until_delivered(submitted);
  ring.oracle.finalize();
  EXPECT_TRUE(ring.oracle.ok()) << ring.oracle.report();
  uint64_t cancels = 0;
  for (int i = 0; i < 3; ++i) {
    const Log& log = ring.logs[static_cast<size_t>(i)];
    EXPECT_EQ(log.configs, 1);
    EXPECT_EQ(log.delivered, ring.logs[0].delivered);
    cancels += ring.ring.engine(i).stats().hold_cancels;
  }
  EXPECT_EQ(ring.logs[0].delivered.size(), submitted);
  EXPECT_GT(cancels, 0u);
}

TEST(UdpTransport, RejectsUnparseablePeerAddress) {
  EventLoop loop;
  auto peers = free_peers(3);
  peers[2].ip = "10.0.0.300";
  EXPECT_THROW(UdpTransport(0, peers, loop), std::runtime_error);
  // The same map with the address fixed is accepted.
  peers[2].ip = "127.0.0.1";
  EXPECT_NO_THROW(UdpTransport(0, peers, loop));
}

using Packets = std::vector<std::pair<protocol::SocketId, std::string>>;

/// Records the packets and timers a transport hands it.
struct Recorder final : protocol::PacketHandler {
  Packets packets;
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
  const auto peers = free_peers(2);
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
  const auto peers = free_peers(2);
  Recorder ha;
  Recorder hb;
  UdpTransport b(1, peers, loop);
  b.bind(hb);
  {
    UdpTransport a(0, peers, loop);
    a.bind(ha);
    a.set_timer(protocol::kTimerTokenLoss, util::msec(5));
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
  const auto peers = free_peers(2);
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
  EXPECT_EQ(hb.packets, (Packets{{protocol::kSockData, "all"},
                                 {protocol::kSockData, "one"}}));
  EXPECT_TRUE(ha.packets.empty());
}

/// Datagram `i` of a burst: `size` bytes that no other datagram of the
/// burst repeats.
std::string datagram(size_t i, size_t size) {
  std::string d(size, '\0');
  for (size_t b = 0; b < size; ++b) {
    d[b] = static_cast<char>((i * 131 + b * 7) & 0xFF);
  }
  return d;
}

/// Multicasts `burst` on the data socket from inside one timer dispatch,
/// then (if set) unicasts `token` to node 1's token socket.
struct Burster final : protocol::PacketHandler {
  UdpTransport& transport;
  std::vector<std::string> burst;
  std::string token;
  uint64_t data_calls_after_token = 0;  ///< data_send_calls() then

  explicit Burster(UdpTransport& t) : transport(t) {}
  void on_packet(protocol::SocketId,
                 std::span<const std::byte>) override {}
  void on_timer(protocol::TimerKind) override {
    for (const std::string& d : burst) {
      transport.multicast(protocol::kSockData, util::as_bytes(d));
    }
    if (!token.empty()) {
      transport.unicast(1, protocol::kSockToken, util::as_bytes(token), 0);
      data_calls_after_token = transport.data_send_calls();
    }
  }
  [[nodiscard]] protocol::SocketId preferred_socket() const override {
    return protocol::kSockData;
  }
};

/// A sender and two receivers on one loop, all on 127.0.0.1 (the group
/// path).
struct GroupOfThree {
  EventLoop loop;
  std::vector<std::unique_ptr<UdpTransport>> t;

  GroupOfThree() {
    const auto peers = free_peers(3);
    for (ProcessId i = 0; i < 3; ++i) {
      t.push_back(std::make_unique<UdpTransport>(i, peers, loop));
    }
  }
};

Packets as_data(const std::vector<std::string>& burst) {
  Packets packets;
  for (const std::string& d : burst) packets.emplace_back(protocol::kSockData, d);
  return packets;
}

TEST(UdpTransport, OneBurstReachesEachPeerAsTheSameDatagramsInOrder) {
  GroupOfThree g;
  Burster sender(*g.t[0]);
  Recorder r1;
  Recorder r2;
  g.t[0]->bind(sender);
  g.t[1]->bind(r1);
  g.t[2]->bind(r2);
  for (size_t i = 0; i < 20; ++i) sender.burst.push_back(datagram(i, 1000));
  g.t[0]->set_timer(protocol::kTimerJoin, 0);
  g.loop.run_for(util::msec(30));
  EXPECT_EQ(r1.packets, as_data(sender.burst));
  EXPECT_EQ(r2.packets, as_data(sender.burst));
  EXPECT_EQ(g.t[0]->datagrams_received(), 0u);  // its own copies filtered
  EXPECT_EQ(g.t[1]->datagrams_received(), 20u);
  EXPECT_EQ(g.t[0]->data_datagrams_sent(), 20u);
  EXPECT_EQ(g.t[0]->data_send_calls(), 1u);
  EXPECT_EQ(g.t[0]->send_drops(), 0u);
}

TEST(UdpTransport, MixedSizesGoThroughTheBatchByteIdentical) {
  GroupOfThree g;
  Burster sender(*g.t[0]);
  Recorder r1;
  Recorder r2;
  g.t[0]->bind(sender);
  g.t[1]->bind(r1);
  g.t[2]->bind(r2);
  // Sends, by the batch rules: [100 100 100 50] closed by the shorter 50;
  // [100] alone, flushed by the longer 200, so a plain sendto; [200 200 10];
  // [300 300 64]; 64 x 64, the segment limit; 64; 43 x 1400, the byte
  // limit; 7 x 1400. Eight send calls for 126 datagrams.
  std::vector<size_t> sizes = {100, 100, 100, 50, 100, 200, 200, 10, 300, 300};
  sizes.insert(sizes.end(), 66, 64);
  sizes.insert(sizes.end(), 50, 1400);
  for (size_t i = 0; i < sizes.size(); ++i) {
    sender.burst.push_back(datagram(i, sizes[i]));
  }
  g.t[0]->set_timer(protocol::kTimerJoin, 0);
  g.loop.run_for(util::msec(30));
  EXPECT_EQ(r1.packets, as_data(sender.burst));
  EXPECT_EQ(r2.packets, as_data(sender.burst));
  EXPECT_EQ(g.t[0]->data_datagrams_sent(), 126u);
  EXPECT_EQ(g.t[0]->data_send_calls(), 8u);
  EXPECT_EQ(g.t[0]->send_drops(), 0u);
}

/// Records what it is handed and prefers the token socket from the k-th
/// data datagram on, until it is handed a token.
struct PriorityFlipper final : protocol::PacketHandler {
  size_t flip_after;
  size_t data_seen = 0;
  Packets packets;

  explicit PriorityFlipper(size_t k) : flip_after(k) {}
  void on_packet(protocol::SocketId sock,
                 std::span<const std::byte> packet) override {
    packets.emplace_back(
        sock, std::string(reinterpret_cast<const char*>(packet.data()),
                          packet.size()));
    if (sock == protocol::kSockData) ++data_seen;
    if (sock == protocol::kSockToken) flip_after = SIZE_MAX;
  }
  void on_timer(protocol::TimerKind) override {}
  [[nodiscard]] protocol::SocketId preferred_socket() const override {
    return data_seen >= flip_after ? protocol::kSockToken : protocol::kSockData;
  }
};

TEST(UdpTransport, TokenPreferredMidReadIsHandledBeforeTheNextSegment) {
  // The burst arrives as one coalesced read. After the second segment the
  // handler prefers the token, which waits at the token socket: it must
  // come next, ahead of the third segment, as between separate datagrams.
  GroupOfThree g;
  Burster sender(*g.t[0]);
  PriorityFlipper receiver(2);
  Recorder r2;
  g.t[0]->bind(sender);
  g.t[1]->bind(receiver);
  g.t[2]->bind(r2);
  for (size_t i = 0; i < 6; ++i) sender.burst.push_back(datagram(i, 500));
  sender.token = "token";
  g.t[0]->set_timer(protocol::kTimerJoin, 0);
  g.loop.run_for(util::msec(30));
  Packets expected = as_data(sender.burst);
  expected.insert(expected.begin() + 2, {protocol::kSockToken, "token"});
  EXPECT_EQ(receiver.packets, expected);
  EXPECT_EQ(r2.packets, as_data(sender.burst));
  // The queued burst left before the token: data sent ahead of the token
  // in a visit stays ahead of it on the wire.
  EXPECT_EQ(sender.data_calls_after_token, 1u);
  EXPECT_EQ(g.t[0]->data_send_calls(), 1u);
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

TEST(EventLoopTest, PausedLoopMovesItsTimersOnByTheMostOverdue) {
  // The loop cannot run for 150 ms. The timer due at 20 ms, the most
  // overdue, fires at once; the one due at 100 ms keeps its 80 ms spacing
  // to it instead of firing in the same sweep.
  EventLoop loop;
  Nanos first = -1;
  Nanos second = -1;
  loop.set_timer(1, util::msec(20), [&] { first = loop.now(); });
  loop.set_timer(2, util::msec(100), [&] { second = loop.now(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const Nanos woke = loop.now();
  loop.run_for(util::msec(1));
  ASSERT_GE(first, 0);
  EXPECT_LT(first - woke, util::msec(10));
  EXPECT_EQ(second, -1);
  loop.run_for(util::msec(200));
  ASSERT_GE(second, 0);
  EXPECT_GE(second - woke, util::msec(80));
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
