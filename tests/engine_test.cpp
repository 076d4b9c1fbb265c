// Unit tests for protocol::Engine driven directly through a mock Host: the
// paper's token-handling rules (§III-A), data handling (§III-B), and
// priority switching (§III-C), without a network or simulator.
#include "protocol/engine.hpp"

#include <gtest/gtest.h>

#include "membership/membership.hpp"
#include "util/bytes.hpp"

namespace accelring::protocol {
namespace {

/// Records every action the engine takes; hold cancels are only counted,
/// so that `sent` lists the ring's data and token traffic.
class MockHost : public Host {
 public:
  struct Sent {
    bool is_multicast = false;
    ProcessId to = kNoProcess;
    SocketId sock = 0;
    std::vector<std::byte> bytes;
    Nanos delay = 0;
  };

  void multicast(SocketId sock, std::span<const std::byte> data) override {
    if (peek_type(data) == PacketType::kHoldCancel) {
      ++cancels;
      return;
    }
    sent.push_back(Sent{true, kNoProcess, sock, util::to_vector(data), 0});
  }
  void unicast(ProcessId to, SocketId sock, std::span<const std::byte> data,
               Nanos delay) override {
    sent.push_back(Sent{false, to, sock, util::to_vector(data), delay});
  }
  void deliver(const Delivery& delivery) override {
    delivered.push_back(delivery);
  }
  void on_configuration(const ConfigurationChange& change) override {
    configs.push_back(change);
  }
  void set_timer(TimerKind kind, Nanos delay) override {
    timers[kind] = delay;
  }
  void cancel_timer(TimerKind kind) override { timers.erase(kind); }
  Nanos now() override { return now_value; }

  /// Sent data messages, decoded, in send order.
  [[nodiscard]] std::vector<DataMsg> sent_data() const {
    std::vector<DataMsg> out;
    for (const Sent& s : sent) {
      if (peek_type(s.bytes) == PacketType::kData) {
        if (auto d = decode_data(s.bytes)) out.push_back(*d);
      }
    }
    return out;
  }
  /// Sent tokens, decoded, in send order.
  [[nodiscard]] std::vector<TokenMsg> sent_tokens() const {
    std::vector<TokenMsg> out;
    for (const Sent& s : sent) {
      if (peek_type(s.bytes) == PacketType::kToken) {
        if (auto t = decode_token(s.bytes)) out.push_back(*t);
      }
    }
    return out;
  }
  /// Index in `sent` of the first token (to check pre/post-token ordering).
  [[nodiscard]] int first_token_index() const {
    for (size_t i = 0; i < sent.size(); ++i) {
      if (peek_type(sent[i].bytes) == PacketType::kToken) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
  void clear() {
    sent.clear();
    delivered.clear();
    configs.clear();
  }

  std::vector<Sent> sent;
  std::vector<Delivery> delivered;
  std::vector<ConfigurationChange> configs;
  std::map<TimerKind, Nanos> timers;
  Nanos now_value = 0;
  int cancels = 0;  ///< hold cancels multicast
};

RingConfig ring3() {
  RingConfig ring;
  ring.ring_id = membership::make_ring_id(1, 0);
  ring.members = {0, 1, 2};
  return ring;
}

/// One message per packet: these tests count the engine's data sends, and
/// the windows count packets (packing has its own tests in packing_test).
ProtocolConfig accel_config(uint32_t window) {
  ProtocolConfig cfg;
  cfg.variant = Variant::kAccelerated;
  cfg.accelerated_window = window;
  cfg.personal_window = 20;
  cfg.global_window = 160;
  cfg.enable_packing = false;
  return cfg;
}

std::vector<std::byte> payload(const std::string& s) {
  return util::to_vector(util::as_bytes(s));
}

TokenMsg token_for(const RingConfig& ring, uint64_t token_id, uint64_t round,
                   SeqNum seq, SeqNum aru) {
  TokenMsg t;
  t.ring_id = ring.ring_id;
  t.token_id = token_id;
  t.round = round;
  t.seq = seq;
  t.aru = aru;
  return t;
}

DataMsg data_from(const RingConfig& ring, ProcessId pid, SeqNum seq,
                  uint64_t round, bool post_token = false,
                  Service service = Service::kAgreed) {
  DataMsg d;
  d.ring_id = ring.ring_id;
  d.pid = pid;
  d.seq = seq;
  d.round = round;
  d.post_token = post_token;
  d.service = service;
  d.payload = payload("m" + std::to_string(seq));
  return d;
}

/// Engine under test as participant 1 of {0,1,2} (non-representative, so
/// tests control the token explicitly).
struct EngineFixture : public ::testing::Test {
  void start(ProtocolConfig cfg) {
    host = std::make_unique<MockHost>();
    engine = std::make_unique<Engine>(1, cfg, *host);
    engine->start_with_ring(ring3());
    host->clear();
  }
  void feed_token(const TokenMsg& t) {
    engine->on_packet(kSockToken, encode(t));
  }
  /// Feed `t`; if the engine holds it idle, end the hold as its timer would.
  void feed_token_passed(const TokenMsg& t) {
    feed_token(t);
    if (host->timers.contains(kTimerTokenHold)) {
      engine->on_timer(kTimerTokenHold);
    }
  }
  void feed_data(const DataMsg& d) {
    engine->on_packet(kSockData, encode(d));
  }

  std::unique_ptr<MockHost> host;
  std::unique_ptr<Engine> engine;
};

// --------------------------------------------------------------------------
// Pre/post-token multicasting (§III-A-1, §III-A-3)
// --------------------------------------------------------------------------

TEST_F(EngineFixture, AcceleratedWindowSplitsSending) {
  start(accel_config(3));
  for (int i = 0; i < 8; ++i) engine->submit(Service::kAgreed, payload("x"));
  feed_token(token_for(ring3(), 1, 1, 0, 0));

  // 8 new messages: 5 sent pre-token, 3 post-token.
  const auto data = host->sent_data();
  ASSERT_EQ(data.size(), 8u);
  const int token_at = host->first_token_index();
  ASSERT_GE(token_at, 0);
  EXPECT_EQ(token_at, 5);  // exactly 5 data sends before the token
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(data[i].post_token) << i;
  for (int i = 5; i < 8; ++i) EXPECT_TRUE(data[i].post_token) << i;
  // Sequence numbers are assigned in send order 1..8 regardless of phase.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(data[i].seq, i + 1);
  // The token reflects ALL 8 messages even though 3 were sent after it.
  const auto tokens = host->sent_tokens();
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].seq, 8);
}

TEST_F(EngineFixture, FewMessagesThanWindowAllGoPostToken) {
  start(accel_config(10));
  engine->submit(Service::kAgreed, payload("a"));
  engine->submit(Service::kAgreed, payload("b"));
  feed_token(token_for(ring3(), 1, 1, 0, 0));
  const auto data = host->sent_data();
  ASSERT_EQ(data.size(), 2u);
  EXPECT_EQ(host->first_token_index(), 0);  // token first
  EXPECT_TRUE(data[0].post_token);
  EXPECT_TRUE(data[1].post_token);
}

TEST_F(EngineFixture, OriginalVariantSendsEverythingBeforeToken) {
  ProtocolConfig cfg;
  cfg.variant = Variant::kOriginal;
  cfg.accelerated_window = 15;  // must be ignored
  cfg.enable_packing = false;   // count one data send per message
  start(cfg);
  for (int i = 0; i < 6; ++i) engine->submit(Service::kAgreed, payload("x"));
  feed_token(token_for(ring3(), 1, 1, 0, 0));
  const auto data = host->sent_data();
  ASSERT_EQ(data.size(), 6u);
  EXPECT_EQ(host->first_token_index(), 6);  // token after all data
  for (const auto& d : data) EXPECT_FALSE(d.post_token);
}

TEST_F(EngineFixture, PersonalWindowCapsARound) {
  auto cfg = accel_config(5);
  cfg.personal_window = 4;
  start(cfg);
  for (int i = 0; i < 10; ++i) engine->submit(Service::kAgreed, payload("x"));
  feed_token(token_for(ring3(), 1, 1, 0, 0));
  EXPECT_EQ(host->sent_data().size(), 4u);
  EXPECT_EQ(engine->pending(), 6u);
  // Next round sends the next 4.
  feed_token(token_for(ring3(), 2, 2, 4, 4));
  EXPECT_EQ(host->sent_data().size(), 8u);
}

TEST_F(EngineFixture, RetransmissionsAllSentBeforeToken) {
  start(accel_config(2));
  // Receive data 1..3 from p0 so we can answer retransmissions.
  for (SeqNum s = 1; s <= 3; ++s) feed_data(data_from(ring3(), 0, s, 1));
  host->clear();
  engine->submit(Service::kAgreed, payload("new"));
  TokenMsg t = token_for(ring3(), 1, 1, 3, 0);
  t.rtr = {2, 3};
  feed_token(t);

  const auto data = host->sent_data();
  // 2 retransmissions + 1 new message.
  ASSERT_EQ(data.size(), 3u);
  EXPECT_EQ(data[0].seq, 2);
  EXPECT_EQ(data[1].seq, 3);
  // Retransmissions precede the token; they are answered, so the outgoing
  // token's rtr is empty.
  EXPECT_GE(host->first_token_index(), 2);
  const auto tokens = host->sent_tokens();
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_TRUE(tokens[0].rtr.empty());
  EXPECT_EQ(engine->stats().retransmitted, 2u);
}

TEST_F(EngineFixture, UnansweredRtrStaysOnToken) {
  start(accel_config(2));
  TokenMsg t = token_for(ring3(), 1, 1, 5, 0);
  t.rtr = {4, 5};
  feed_token(t);  // we have nothing, can't answer
  const auto tokens = host->sent_tokens();
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].rtr, (std::vector<SeqNum>{4, 5}));
}

// --------------------------------------------------------------------------
// rtr guard (§III-A-2)
// --------------------------------------------------------------------------

TEST_F(EngineFixture, MissingMessagesNotRequestedUntilNextRound) {
  start(accel_config(5));
  // Round 1 token says seq=10; we have nothing. Under acceleration those 10
  // may simply not have been sent yet -> no requests this round.
  feed_token(token_for(ring3(), 1, 1, 10, 0));
  auto tokens = host->sent_tokens();
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_TRUE(tokens[0].rtr.empty());

  // Round 2: now the previous round's seq (10) is the bound; 1..10 still
  // missing -> requested.
  feed_token(token_for(ring3(), 2, 2, 10, 0));
  tokens = host->sent_tokens();
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[1].rtr.size(), 10u);
  EXPECT_EQ(engine->stats().rtr_requested, 10u);
}

TEST_F(EngineFixture, OriginalVariantRequestsImmediately) {
  ProtocolConfig cfg;
  cfg.variant = Variant::kOriginal;
  start(cfg);
  feed_token(token_for(ring3(), 1, 1, 10, 0));
  const auto tokens = host->sent_tokens();
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].rtr.size(), 10u);
}

TEST_F(EngineFixture, ReceivedMessagesNotRequested) {
  start(accel_config(5));
  feed_token(token_for(ring3(), 1, 1, 4, 0));
  feed_data(data_from(ring3(), 0, 1, 1));
  feed_data(data_from(ring3(), 0, 3, 1));
  feed_token(token_for(ring3(), 2, 2, 4, 0));
  const auto tokens = host->sent_tokens();
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[1].rtr, (std::vector<SeqNum>{2, 4}));
}

// --------------------------------------------------------------------------
// aru rules (§III-A-2)
// --------------------------------------------------------------------------

TEST_F(EngineFixture, LowersAruWhenMissingMessages) {
  start(accel_config(5));
  // Token claims seq=5, aru=5 but we only have 1..2.
  feed_data(data_from(ring3(), 0, 1, 1));
  feed_data(data_from(ring3(), 0, 2, 1));
  feed_token(token_for(ring3(), 1, 1, 5, 5));
  const auto tokens = host->sent_tokens();
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].aru, 2);
  EXPECT_EQ(tokens[0].aru_id, 1);  // we lowered it
}

TEST_F(EngineFixture, RaisesOwnLoweredAruWhenCaughtUp) {
  start(accel_config(5));
  feed_data(data_from(ring3(), 0, 1, 1));
  feed_data(data_from(ring3(), 0, 2, 1));
  feed_token(token_for(ring3(), 1, 1, 5, 5));  // we lower to 2

  // Catch up fully, then receive the token back with our id on the aru.
  for (SeqNum s = 3; s <= 5; ++s) feed_data(data_from(ring3(), 0, s, 1));
  TokenMsg t = token_for(ring3(), 2, 2, 5, 2);
  t.aru_id = 1;
  feed_token_passed(t);
  const auto tokens = host->sent_tokens();
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[1].aru, 5);
  EXPECT_EQ(tokens[1].aru_id, kNoProcess);  // fully caught up: id cleared
}

TEST_F(EngineFixture, DoesNotTouchOthersLoweredAru) {
  start(accel_config(5));
  for (SeqNum s = 1; s <= 5; ++s) feed_data(data_from(ring3(), 0, s, 1));
  TokenMsg t = token_for(ring3(), 1, 1, 5, 3);
  t.aru_id = 2;  // someone else lowered it
  feed_token(t);
  const auto tokens = host->sent_tokens();
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].aru, 3);  // untouched: not ours to raise
  EXPECT_EQ(tokens[0].aru_id, 2);
}

TEST_F(EngineFixture, AruTracksSeqWhenEveryoneCaughtUp) {
  start(accel_config(2));
  for (int i = 0; i < 4; ++i) engine->submit(Service::kAgreed, payload("x"));
  // aru == seq on the received token and we're caught up: our new messages
  // advance the aru along with seq.
  feed_token(token_for(ring3(), 1, 1, 0, 0));
  const auto tokens = host->sent_tokens();
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].seq, 4);
  EXPECT_EQ(tokens[0].aru, 4);
}

TEST_F(EngineFixture, AruDoesNotTrackWhenBehind) {
  start(accel_config(2));
  engine->submit(Service::kAgreed, payload("x"));
  // aru (2) < seq (4) on the received token: somebody is missing messages;
  // our additions must not advance the aru.
  feed_data(data_from(ring3(), 0, 1, 1));
  feed_data(data_from(ring3(), 0, 2, 1));
  feed_token(token_for(ring3(), 1, 1, 4, 2));
  const auto tokens = host->sent_tokens();
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].seq, 5);
  EXPECT_EQ(tokens[0].aru, 2);
}

// --------------------------------------------------------------------------
// fcc (§III-A-2)
// --------------------------------------------------------------------------

TEST_F(EngineFixture, FccReplacedEachRound) {
  start(accel_config(0));
  for (int i = 0; i < 7; ++i) engine->submit(Service::kAgreed, payload("x"));
  TokenMsg t = token_for(ring3(), 1, 1, 0, 0);
  t.fcc = 40;  // others' traffic
  feed_token(t);
  auto tokens = host->sent_tokens();
  EXPECT_EQ(tokens[0].fcc, 47u);  // 40 + our 7

  // Next round: token comes back with fcc including our 7; we now send 0.
  TokenMsg t2 = token_for(ring3(), 2, 2, 7, 7);
  t2.fcc = 30;  // others decayed too
  feed_token(t2);
  tokens = host->sent_tokens();
  EXPECT_EQ(tokens[1].fcc, 23u);  // 30 - 7 + 0
}

TEST_F(EngineFixture, GlobalWindowThrottlesSending) {
  auto cfg = accel_config(0);
  cfg.global_window = 50;
  start(cfg);
  for (int i = 0; i < 20; ++i) engine->submit(Service::kAgreed, payload("x"));
  TokenMsg t = token_for(ring3(), 1, 1, 0, 0);
  t.fcc = 45;  // only 5 slots left in the global window
  feed_token(t);
  EXPECT_EQ(host->sent_data().size(), 5u);
}

// --------------------------------------------------------------------------
// Delivery and discard (§III-A-4, §III-B)
// --------------------------------------------------------------------------

TEST_F(EngineFixture, AgreedDeliveredInOrderIncludingOwn) {
  start(accel_config(0));
  engine->submit(Service::kAgreed, payload("mine"));
  feed_data(data_from(ring3(), 0, 1, 1));
  // Token: p0 sent seq 1; we add seq 2. We have 1, so everything delivers.
  feed_token(token_for(ring3(), 1, 1, 1, 1));
  ASSERT_EQ(host->delivered.size(), 2u);
  EXPECT_EQ(host->delivered[0].seq, 1);
  EXPECT_EQ(host->delivered[0].sender, 0);
  EXPECT_EQ(host->delivered[1].seq, 2);
  EXPECT_EQ(host->delivered[1].sender, 1);  // self-delivery
}

TEST_F(EngineFixture, SafeRequiresTwoAruConfirmations) {
  start(accel_config(0));
  feed_data(data_from(ring3(), 0, 1, 1, false, Service::kSafe));
  // Round 1: aru reaches 1 on the token we send. Not yet safe (the safe
  // line is the min of the last TWO sent arus).
  feed_token(token_for(ring3(), 1, 1, 1, 1));
  EXPECT_TRUE(host->delivered.empty());
  // Round 2: second token confirms everyone had aru >= 1 for a full round.
  feed_token(token_for(ring3(), 2, 2, 1, 1));
  ASSERT_EQ(host->delivered.size(), 1u);
  EXPECT_EQ(host->delivered[0].service, Service::kSafe);
}

TEST_F(EngineFixture, AgreedBlockedBehindUndeliveredSafe) {
  start(accel_config(0));
  feed_data(data_from(ring3(), 0, 1, 1, false, Service::kSafe));
  feed_data(data_from(ring3(), 0, 2, 1, false, Service::kAgreed));
  feed_token(token_for(ring3(), 1, 1, 2, 2));
  // Agreed message 2 must wait for Safe message 1.
  EXPECT_TRUE(host->delivered.empty());
  feed_token(token_for(ring3(), 2, 2, 2, 2));
  ASSERT_EQ(host->delivered.size(), 2u);
  EXPECT_EQ(host->delivered[0].seq, 1);
  EXPECT_EQ(host->delivered[1].seq, 2);
}

TEST_F(EngineFixture, StableMessagesDiscardedAndNotRetransmittable) {
  start(accel_config(0));
  for (SeqNum s = 1; s <= 3; ++s) feed_data(data_from(ring3(), 0, s, 1));
  feed_token(token_for(ring3(), 1, 1, 3, 3));
  feed_token(token_for(ring3(), 2, 2, 3, 3));
  host->clear();
  // All three are now stable and discarded; an rtr for them goes unanswered.
  TokenMsg t = token_for(ring3(), 3, 3, 3, 3);
  t.rtr = {1, 2, 3};
  feed_token(t);
  EXPECT_TRUE(host->sent_data().empty());
  const auto tokens = host->sent_tokens();
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].rtr.size(), 3u);
}

// --------------------------------------------------------------------------
// Duplicates and retransmitted tokens
// --------------------------------------------------------------------------

TEST_F(EngineFixture, DuplicateTokenIgnored) {
  start(accel_config(0));
  engine->submit(Service::kAgreed, payload("x"));
  const TokenMsg t = token_for(ring3(), 5, 1, 0, 0);
  feed_token(t);
  const size_t sends = host->sent.size();
  feed_token(t);  // retransmitted duplicate
  EXPECT_EQ(host->sent.size(), sends);
  EXPECT_EQ(engine->stats().duplicates, 1u);
}

TEST_F(EngineFixture, StaleTokenIdIgnored) {
  start(accel_config(0));
  feed_token(token_for(ring3(), 5, 1, 0, 0));
  const size_t sends = host->sent.size();
  feed_token(token_for(ring3(), 3, 1, 0, 0));  // older token id
  EXPECT_EQ(host->sent.size(), sends);
}

TEST_F(EngineFixture, DuplicateDataCounted) {
  start(accel_config(0));
  const auto d = data_from(ring3(), 0, 1, 1);
  feed_data(d);
  feed_data(d);
  EXPECT_EQ(engine->stats().duplicates, 1u);
}

TEST_F(EngineFixture, TokenRetransmitTimerResendsLastToken) {
  start(accel_config(0));
  feed_token_passed(token_for(ring3(), 1, 1, 0, 0));
  ASSERT_EQ(host->sent_tokens().size(), 1u);
  engine->on_timer(kTimerTokenRetransmit);
  const auto tokens = host->sent_tokens();
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].token_id, tokens[1].token_id);
  EXPECT_EQ(engine->stats().token_retransmits, 1u);
}

// --------------------------------------------------------------------------
// Priority switching (§III-C)
// --------------------------------------------------------------------------

TEST_F(EngineFixture, DataHasPriorityAfterTokenProcessing) {
  start(accel_config(0));
  feed_token(token_for(ring3(), 1, 1, 0, 0));
  EXPECT_EQ(engine->preferred_socket(), kSockData);
}

TEST_F(EngineFixture, AggressiveRaisesOnAnyPredecessorNextRoundMessage) {
  auto cfg = accel_config(5);
  cfg.priority = PriorityMethod::kAggressive;
  start(cfg);
  feed_token(token_for(ring3(), 1, 1, 0, 0));  // we're in round 1
  // Predecessor (p0) message from round 1 (already seen round): no switch.
  feed_data(data_from(ring3(), 0, 1, 1, /*post_token=*/false));
  EXPECT_EQ(engine->preferred_socket(), kSockData);
  // Predecessor message from round 2 (next round), pre-token: switch.
  feed_data(data_from(ring3(), 0, 5, 2, /*post_token=*/false));
  EXPECT_EQ(engine->preferred_socket(), kSockToken);
}

TEST_F(EngineFixture, ConservativeWaitsForPostTokenMessage) {
  auto cfg = accel_config(5);
  cfg.priority = PriorityMethod::kConservative;
  start(cfg);
  feed_token(token_for(ring3(), 1, 1, 0, 0));
  feed_data(data_from(ring3(), 0, 5, 2, /*post_token=*/false));
  EXPECT_EQ(engine->preferred_socket(), kSockData);  // pre-token: no switch
  feed_data(data_from(ring3(), 0, 6, 2, /*post_token=*/true));
  EXPECT_EQ(engine->preferred_socket(), kSockToken);
}

TEST_F(EngineFixture, NonPredecessorMessagesNeverRaisePriority) {
  auto cfg = accel_config(5);
  cfg.priority = PriorityMethod::kAggressive;
  start(cfg);
  feed_token(token_for(ring3(), 1, 1, 0, 0));
  // p2 is our successor, not predecessor.
  feed_data(data_from(ring3(), 2, 7, 2, true));
  EXPECT_EQ(engine->preferred_socket(), kSockData);
}

TEST_F(EngineFixture, PriorityDropsBackAfterNextToken) {
  auto cfg = accel_config(5);
  cfg.priority = PriorityMethod::kAggressive;
  start(cfg);
  feed_token(token_for(ring3(), 1, 1, 0, 0));
  feed_data(data_from(ring3(), 0, 5, 2));
  EXPECT_EQ(engine->preferred_socket(), kSockToken);
  feed_token(token_for(ring3(), 2, 2, 6, 0));
  EXPECT_EQ(engine->preferred_socket(), kSockData);
}

// --------------------------------------------------------------------------
// Backpressure and idle behaviour
// --------------------------------------------------------------------------

TEST_F(EngineFixture, SubmitBackpressureAtMaxPending) {
  auto cfg = accel_config(0);
  cfg.max_pending = 3;
  start(cfg);
  EXPECT_TRUE(engine->submit(Service::kAgreed, payload("1")));
  EXPECT_TRUE(engine->submit(Service::kAgreed, payload("2")));
  EXPECT_TRUE(engine->submit(Service::kAgreed, payload("3")));
  EXPECT_FALSE(engine->submit(Service::kAgreed, payload("4")));
  EXPECT_EQ(engine->stats().submit_rejected, 1u);
}

TEST_F(EngineFixture, IdleRingHoldsToken) {
  ProtocolConfig cfg = accel_config(0);
  start(cfg);
  // Nothing to send, nothing outstanding, everything delivered: the engine
  // holds the token on its hold timer and sends nothing.
  feed_token(token_for(ring3(), 1, 1, 0, 0));
  EXPECT_TRUE(host->sent.empty());
  ASSERT_TRUE(host->timers.contains(kTimerTokenHold));
  EXPECT_EQ(host->timers[kTimerTokenHold], cfg.timeouts.idle_token_hold);
  EXPECT_FALSE(host->timers.contains(kTimerTokenRetransmit));
  EXPECT_EQ(engine->stats().token_holds, 1u);
  // The timer passes it, with no delay asked of the host, and arms the
  // retransmit timer from then on.
  engine->on_timer(kTimerTokenHold);
  ASSERT_EQ(host->sent_tokens().size(), 1u);
  EXPECT_EQ(host->sent[0].to, 2);
  EXPECT_EQ(host->sent[0].delay, 0);
  EXPECT_EQ(host->timers[kTimerTokenRetransmit], cfg.timeouts.token_retransmit);
  // A second firing finds nothing held.
  engine->on_timer(kTimerTokenHold);
  EXPECT_EQ(host->sent_tokens().size(), 1u);
  // With pending traffic the token is passed at once.
  engine->submit(Service::kAgreed, payload("x"));
  feed_token(token_for(ring3(), 2, 2, 0, 0));
  EXPECT_EQ(host->sent_tokens().size(), 2u);
  EXPECT_EQ(engine->stats().token_holds, 1u);
}

TEST_F(EngineFixture, LocalSubmitReleasesTheHold) {
  start(accel_config(0));
  feed_token(token_for(ring3(), 1, 1, 0, 0));
  ASSERT_TRUE(host->sent_tokens().empty());
  engine->submit(Service::kAgreed, payload("x"));
  // The held token leaves now; the message goes out on the next visit.
  const auto tokens = host->sent_tokens();
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].seq, 0);
  EXPECT_FALSE(host->timers.contains(kTimerTokenHold));
  // The members ahead of the token are told not to hold it either.
  EXPECT_EQ(host->cancels, 1);
}

TEST_F(EngineFixture, HoldCancelReleasesTheHold) {
  start(accel_config(0));
  feed_token(token_for(ring3(), 1, 1, 0, 0));
  ASSERT_TRUE(host->sent_tokens().empty());
  // A cancel for another ring is not ours.
  engine->on_packet(kSockData,
                    encode(HoldCancelMsg{membership::make_ring_id(9, 7)}));
  EXPECT_TRUE(host->sent_tokens().empty());
  engine->on_packet(kSockData, encode(HoldCancelMsg{ring3().ring_id}));
  EXPECT_EQ(host->sent_tokens().size(), 1u);
  EXPECT_FALSE(host->timers.contains(kTimerTokenHold));
  EXPECT_EQ(host->cancels, 0);
}

TEST_F(EngineFixture, CancelAtANonHolderSkipsOneIdleHold) {
  start(accel_config(0));
  engine->on_packet(kSockData, encode(HoldCancelMsg{ring3().ring_id}));
  // The next idle visit passes the token at once...
  feed_token(token_for(ring3(), 1, 1, 0, 0));
  EXPECT_EQ(host->sent_tokens().size(), 1u);
  EXPECT_FALSE(host->timers.contains(kTimerTokenHold));
  // ...and only that one.
  feed_token(token_for(ring3(), 2, 2, 0, 0));
  EXPECT_EQ(host->sent_tokens().size(), 1u);
  EXPECT_TRUE(host->timers.contains(kTimerTokenHold));
}

TEST_F(EngineFixture, SkipSubmitNeitherReleasesNorCancels) {
  start(accel_config(0));
  feed_token(token_for(ring3(), 1, 1, 0, 0));
  engine->submit(Service::kAgreed, payload("skip"), /*wake=*/false);
  EXPECT_TRUE(host->sent_tokens().empty());
  EXPECT_TRUE(host->timers.contains(kTimerTokenHold));
  EXPECT_EQ(host->cancels, 0);
  // The queued message still leaves on the next visit.
  engine->on_timer(kTimerTokenHold);
  feed_token(token_for(ring3(), 2, 2, 0, 0));
  EXPECT_EQ(host->sent_data().size(), 1u);
}

TEST_F(EngineFixture, OneCancelPerVisitAndNoneAfterAVisitThatSent) {
  start(accel_config(0));
  // Not holding, last visit sent nothing: the first submit cancels, the
  // next ones do not.
  engine->submit(Service::kAgreed, payload("a"));
  engine->submit(Service::kAgreed, payload("b"));
  EXPECT_EQ(host->cancels, 1);
  // A visit that sends: fcc stays above 0 until the token is back, so
  // no member holds and a submit meanwhile needs no cancel.
  feed_token(token_for(ring3(), 1, 1, 0, 0));
  EXPECT_EQ(host->sent_data().size(), 2u);
  engine->submit(Service::kAgreed, payload("c"));
  EXPECT_EQ(host->cancels, 1);
}

TEST_F(EngineFixture, UndeliveredSafeMessagePreventsTheHold) {
  start(accel_config(0));
  feed_data(data_from(ring3(), 0, 1, 1, false, Service::kSafe));
  // aru == seq, but the Safe message waits for the aru of two visits: the
  // token must not wait on this member.
  feed_token(token_for(ring3(), 1, 1, 1, 1));
  EXPECT_TRUE(host->delivered.empty());
  EXPECT_EQ(host->sent_tokens().size(), 1u);
  // Delivered here now; the members after us deliver at their visits of
  // this rotation, so the token still does not wait.
  feed_token(token_for(ring3(), 2, 2, 1, 1));
  EXPECT_EQ(host->delivered.size(), 1u);
  EXPECT_EQ(host->sent_tokens().size(), 2u);
  EXPECT_FALSE(host->timers.contains(kTimerTokenHold));
  // Below our safe line since the last visit: every member has it.
  feed_token(token_for(ring3(), 3, 3, 1, 1));
  EXPECT_EQ(host->sent_tokens().size(), 2u);
  EXPECT_TRUE(host->timers.contains(kTimerTokenHold));
}

TEST_F(EngineFixture, AgreedMessageDoesNotDelayTheHold) {
  start(accel_config(0));
  feed_data(data_from(ring3(), 0, 1, 1));
  // Every member that has an Agreed message delivered it: aru == seq says
  // all have it.
  feed_token(token_for(ring3(), 1, 1, 1, 1));
  EXPECT_EQ(host->delivered.size(), 1u);
  EXPECT_TRUE(host->sent_tokens().empty());
  EXPECT_TRUE(host->timers.contains(kTimerTokenHold));
}

TEST_F(EngineFixture, TokenGoesToSuccessor) {
  start(accel_config(0));
  feed_token_passed(token_for(ring3(), 1, 1, 0, 0));
  ASSERT_FALSE(host->sent.empty());
  EXPECT_FALSE(host->sent[0].is_multicast);
  EXPECT_EQ(host->sent[0].to, 2);  // we are 1 in {0,1,2}
  EXPECT_EQ(host->sent[0].sock, kSockToken);
}

TEST_F(EngineFixture, ForeignRingDataDoesNotCrashOrOrder) {
  start(accel_config(0));
  RingConfig other = ring3();
  other.ring_id = membership::make_ring_id(9, 7);
  feed_data(data_from(other, 0, 1, 1));
  EXPECT_TRUE(host->delivered.empty());
  EXPECT_EQ(engine->local_aru(), 0);
}

TEST_F(EngineFixture, RoundCounterBumpedOnlyByRepresentative) {
  start(accel_config(0));  // we are participant 1, not the representative
  feed_token_passed(token_for(ring3(), 1, 7, 0, 0));
  const auto tokens = host->sent_tokens();
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].round, 7u);  // unchanged

  // Representative bumps: build a separate engine as participant 0.
  MockHost rep_host;
  ProtocolConfig cfg = accel_config(0);
  Engine rep(0, cfg, rep_host);
  RingConfig ring;
  ring.ring_id = ring3().ring_id;
  ring.members = {0, 1, 2};
  rep.start_with_ring(ring);
  // start_with_ring originates a token as representative (round becomes 1),
  // held idle until its timer fires.
  rep.on_timer(kTimerTokenHold);
  const auto rep_tokens = rep_host.sent_tokens();
  ASSERT_FALSE(rep_tokens.empty());
  EXPECT_EQ(rep_tokens[0].round, 1u);
}

}  // namespace
}  // namespace accelring::protocol
