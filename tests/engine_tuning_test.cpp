// Unit tests (mock host) for the engine's adaptive flow control and the
// interaction between packing, windows, and the accelerated queue.
#include <gtest/gtest.h>

#include <set>

#include "membership/membership.hpp"
#include "protocol/engine.hpp"
#include "util/bytes.hpp"

namespace accelring::protocol {
namespace {

/// Minimal recording host (a slimmer sibling of the one in engine_test).
class RecordingHost : public Host {
 public:
  void multicast(SocketId, std::span<const std::byte> data) override {
    if (auto msg = decode_data(data)) data_sent.push_back(*msg);
  }
  void unicast(ProcessId, SocketId, std::span<const std::byte> data,
               Nanos) override {
    if (auto token = decode_token(data)) tokens_sent.push_back(*token);
  }
  void deliver(const Delivery& delivery) override {
    delivered.push_back(delivery);
  }
  void on_configuration(const ConfigurationChange&) override {}
  void set_timer(TimerKind kind, Nanos) override { armed.insert(kind); }
  void cancel_timer(TimerKind kind) override { armed.erase(kind); }
  Nanos now() override { return ++clock_; }

  std::vector<DataMsg> data_sent;
  std::vector<TokenMsg> tokens_sent;
  std::vector<Delivery> delivered;
  std::set<TimerKind> armed;

 private:
  Nanos clock_ = 0;
};

RingConfig ring2() {
  RingConfig ring;
  ring.ring_id = membership::make_ring_id(1, 0);
  ring.members = {0, 1};
  return ring;
}

TokenMsg token(uint64_t id, uint64_t round, SeqNum seq, SeqNum aru) {
  TokenMsg t;
  t.ring_id = ring2().ring_id;
  t.token_id = id;
  t.round = round;
  t.seq = seq;
  t.aru = aru;
  return t;
}

std::vector<std::byte> payload(size_t n) {
  return std::vector<std::byte>(n, std::byte{0x33});
}

TEST(AutoTuneUnit, GrowsAfterIntervalWithBacklog) {
  ProtocolConfig cfg;
  cfg.auto_tune = true;
  cfg.auto_tune_interval = 4;
  cfg.personal_window = 2;
  cfg.accelerated_window = 1;
  cfg.enable_packing = false;  // one message per packet keeps the backlog
  RecordingHost host;
  Engine engine(1, cfg, host);
  engine.start_with_ring(ring2());

  // Keep a deep backlog; after auto_tune_interval rounds the window grows.
  for (int i = 0; i < 50; ++i) engine.submit(Service::kAgreed, payload(10));
  SeqNum seq = 0;
  for (uint64_t round = 1; round <= 5; ++round) {
    engine.on_packet(kSockToken, encode(token(round, round, seq, seq)));
    // An idle token is held; pass it as the hold timer would.
    if (host.armed.contains(kTimerTokenHold)) engine.on_timer(kTimerTokenHold);
    seq = host.tokens_sent.back().seq;
  }
  EXPECT_GT(engine.config().personal_window, 2u);
  EXPECT_GT(engine.config().accelerated_window, 1u);
  // Larger window means later rounds carry more messages.
  EXPECT_GT(host.tokens_sent.back().seq - host.tokens_sent[3].seq, 2);
}

TEST(AutoTuneUnit, NoGrowthWithoutBacklog) {
  ProtocolConfig cfg;
  cfg.auto_tune = true;
  cfg.auto_tune_interval = 2;
  cfg.personal_window = 4;
  RecordingHost host;
  Engine engine(1, cfg, host);
  engine.start_with_ring(ring2());
  SeqNum seq = 0;
  for (uint64_t round = 1; round <= 10; ++round) {
    engine.on_packet(kSockToken, encode(token(round, round, seq, seq)));
    // An idle token is held; pass it as the hold timer would.
    if (host.armed.contains(kTimerTokenHold)) engine.on_timer(kTimerTokenHold);
    seq = host.tokens_sent.back().seq;
  }
  EXPECT_EQ(engine.config().personal_window, 4u);
}

TEST(PackingUnit, PackedMessageCountsOnceAgainstWindow) {
  ProtocolConfig cfg;
  cfg.enable_packing = true;
  cfg.personal_window = 2;  // two protocol packets per round
  cfg.packing_budget = 1000;
  RecordingHost host;
  Engine engine(1, cfg, host);
  engine.start_with_ring(ring2());

  // 10 tiny messages: 2 packets/round, but each packet carries ~5 packed
  // messages, so a single round moves everything.
  for (int i = 0; i < 10; ++i) engine.submit(Service::kAgreed, payload(100));
  engine.on_packet(kSockToken, encode(token(1, 1, 0, 0)));
  EXPECT_LE(host.data_sent.size(), 2u);
  EXPECT_EQ(engine.pending(), 0u);
  size_t delivered = 0;
  for (const auto& d : host.delivered) {
    (void)d;
    ++delivered;
  }
  EXPECT_EQ(delivered, 10u);  // own messages delivered individually
}

TEST(PackingUnit, PackedFlagVisibleOnWire) {
  ProtocolConfig cfg;
  cfg.enable_packing = true;
  RecordingHost host;
  Engine engine(1, cfg, host);
  engine.start_with_ring(ring2());
  engine.submit(Service::kAgreed, payload(20));
  engine.submit(Service::kAgreed, payload(20));
  engine.on_packet(kSockToken, encode(token(1, 1, 0, 0)));
  ASSERT_EQ(host.data_sent.size(), 1u);
  EXPECT_TRUE(host.data_sent[0].packed);
}

TEST(PackingUnit, SingleMessageNotFlaggedPacked) {
  ProtocolConfig cfg;
  cfg.enable_packing = true;
  RecordingHost host;
  Engine engine(1, cfg, host);
  engine.start_with_ring(ring2());
  engine.submit(Service::kAgreed, payload(20));
  engine.on_packet(kSockToken, encode(token(1, 1, 0, 0)));
  ASSERT_EQ(host.data_sent.size(), 1u);
  EXPECT_FALSE(host.data_sent[0].packed);
}

TEST(PackingUnit, AccelWindowAppliesToPackedPackets) {
  ProtocolConfig cfg;
  cfg.enable_packing = true;
  cfg.packing_budget = 250;  // ~2 x 100B messages per packet
  cfg.accelerated_window = 1;
  cfg.personal_window = 10;
  RecordingHost host;
  Engine engine(1, cfg, host);
  engine.start_with_ring(ring2());
  for (int i = 0; i < 8; ++i) engine.submit(Service::kAgreed, payload(100));
  engine.on_packet(kSockToken, encode(token(1, 1, 0, 0)));
  // 4 packed packets total; the last 1 (the accelerated window) goes after
  // the token, so exactly 3 are pre-token.
  ASSERT_EQ(host.data_sent.size(), 4u);
  EXPECT_FALSE(host.data_sent[2].post_token);
  EXPECT_TRUE(host.data_sent[3].post_token);
}

TEST(HeaderPad, PadsWireButNotDelivery) {
  ProtocolConfig cfg;
  RecordingHost host;
  Engine engine(1, cfg, host);
  engine.set_header_pad(64);
  engine.start_with_ring(ring2());
  engine.submit(Service::kAgreed, payload(100));
  engine.on_packet(kSockToken, encode(token(1, 1, 0, 0)));
  ASSERT_EQ(host.data_sent.size(), 1u);
  EXPECT_EQ(host.data_sent[0].header_pad, 64);
  EXPECT_EQ(host.data_sent[0].payload.size(), 100u);
  ASSERT_EQ(host.delivered.size(), 1u);
  EXPECT_EQ(host.delivered[0].payload.size(), 100u);
}

}  // namespace
}  // namespace accelring::protocol
