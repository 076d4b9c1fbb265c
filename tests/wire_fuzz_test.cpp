// Wire-format robustness: every decoder must survive truncation, bit flips,
// and arbitrary garbage without crashing or over-reading, reject anything
// whose CRC does not check out, and round-trip every field of every message
// type exactly.
#include <gtest/gtest.h>

#include <vector>

#include "protocol/wire.hpp"
#include "util/rng.hpp"

namespace accelring::protocol {
namespace {

DataMsg sample_data() {
  DataMsg m;
  m.ring_id = (7u << 16) | 3u;
  m.seq = 123456789;
  m.pid = 11;
  m.round = 42;
  m.service = Service::kSafe;
  m.post_token = true;
  m.recovered = true;
  m.packed = true;
  m.header_pad = 48;
  for (int i = 0; i < 100; ++i) m.payload.push_back(std::byte{uint8_t(i)});
  return m;
}

TokenMsg sample_token() {
  TokenMsg m;
  m.ring_id = (9u << 16) | 1u;
  m.token_id = 987654;
  m.round = 321;
  m.seq = 55555;
  m.aru = 54321;
  m.aru_id = 6;
  m.fcc = 17;
  m.rtr = {100, 7, 54000, 1};
  return m;
}

JoinMsg sample_join() {
  JoinMsg m;
  m.sender = 4;
  m.old_ring_id = (3u << 16) | 2u;
  m.proc_set = {0, 1, 2, 4, 9};
  m.fail_set = {3, 7};
  return m;
}

CommitTokenMsg sample_commit() {
  CommitTokenMsg m;
  m.new_ring_id = (12u << 16) | 0u;
  m.token_id = 9;
  m.rotation = 1;
  for (ProcessId p : {0, 2, 5}) {
    CommitEntry e;
    e.pid = p;
    e.old_ring_id = (11u << 16) | p;
    e.old_aru = 1000 + p;
    e.old_high_seq = 2000 + p;
    e.old_safe_line = 900 + p;
    e.filled = p != 5;
    m.members.push_back(e);
  }
  return m;
}

/// Feed a buffer to every decoder and the type peeker; none may crash, and
/// the caller can assert on how many succeeded.
int decode_everything(std::span<const std::byte> packet) {
  int accepted = 0;
  (void)peek_type(packet);
  if (decode_data(packet)) ++accepted;
  if (decode_token(packet)) ++accepted;
  if (decode_join(packet)) ++accepted;
  if (decode_commit(packet)) ++accepted;
  if (decode_hold_cancel(packet)) ++accepted;
  return accepted;
}

// --- round trips ------------------------------------------------------------

TEST(WireFuzz, DataRoundTripsEveryField) {
  const DataMsg m = sample_data();
  const auto packet = encode(m);
  ASSERT_EQ(peek_type(packet), PacketType::kData);
  const auto d = decode_data(packet);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->ring_id, m.ring_id);
  EXPECT_EQ(d->seq, m.seq);
  EXPECT_EQ(d->pid, m.pid);
  EXPECT_EQ(d->round, m.round);
  EXPECT_EQ(d->service, m.service);
  EXPECT_EQ(d->post_token, m.post_token);
  EXPECT_EQ(d->recovered, m.recovered);
  EXPECT_EQ(d->packed, m.packed);
  EXPECT_EQ(d->header_pad, m.header_pad);
  EXPECT_EQ(d->payload, m.payload);
  EXPECT_EQ(packet.size(),
            DataMsg::encoded_size(m.payload.size(), m.header_pad));
}

TEST(WireFuzz, TokenRoundTripsEveryField) {
  const TokenMsg m = sample_token();
  const auto packet = encode(m);
  ASSERT_EQ(peek_type(packet), PacketType::kToken);
  const auto t = decode_token(packet);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->ring_id, m.ring_id);
  EXPECT_EQ(t->token_id, m.token_id);
  EXPECT_EQ(t->round, m.round);
  EXPECT_EQ(t->seq, m.seq);
  EXPECT_EQ(t->aru, m.aru);
  EXPECT_EQ(t->aru_id, m.aru_id);
  EXPECT_EQ(t->fcc, m.fcc);
  EXPECT_EQ(t->rtr, m.rtr);
}

TEST(WireFuzz, JoinRoundTripsEveryField) {
  const JoinMsg m = sample_join();
  const auto packet = encode(m);
  ASSERT_EQ(peek_type(packet), PacketType::kJoin);
  const auto j = decode_join(packet);
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->sender, m.sender);
  EXPECT_EQ(j->old_ring_id, m.old_ring_id);
  EXPECT_EQ(j->proc_set, m.proc_set);
  EXPECT_EQ(j->fail_set, m.fail_set);
}

TEST(WireFuzz, CommitRoundTripsEveryField) {
  const CommitTokenMsg m = sample_commit();
  const auto packet = encode(m);
  ASSERT_EQ(peek_type(packet), PacketType::kCommitToken);
  const auto c = decode_commit(packet);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->new_ring_id, m.new_ring_id);
  EXPECT_EQ(c->token_id, m.token_id);
  EXPECT_EQ(c->rotation, m.rotation);
  ASSERT_EQ(c->members.size(), m.members.size());
  for (size_t i = 0; i < m.members.size(); ++i) {
    EXPECT_EQ(c->members[i].pid, m.members[i].pid);
    EXPECT_EQ(c->members[i].old_ring_id, m.members[i].old_ring_id);
    EXPECT_EQ(c->members[i].old_aru, m.members[i].old_aru);
    EXPECT_EQ(c->members[i].old_high_seq, m.members[i].old_high_seq);
    EXPECT_EQ(c->members[i].old_safe_line, m.members[i].old_safe_line);
    EXPECT_EQ(c->members[i].filled, m.members[i].filled);
  }
}

// --- adversarial inputs -----------------------------------------------------

/// A data message with the ring's MTU-size payload (1350 B).
DataMsg sample_mtu_data() {
  DataMsg m = sample_data();
  m.header_pad = 0;
  m.payload.clear();
  for (int i = 0; i < 1350; ++i) m.payload.push_back(std::byte{uint8_t(i)});
  return m;
}

std::vector<std::vector<std::byte>> sample_packets() {
  return {encode(sample_data()),  encode(sample_token()),
          encode(sample_join()),  encode(sample_commit()),
          encode(sample_mtu_data()), encode(HoldCancelMsg{0xABCDEF})};
}

TEST(WireFuzz, EveryTruncationIsRejected) {
  // The CRC trails the packet, so any strict prefix must decode to nullopt —
  // from every decoder, not just the matching one.
  for (const auto& packet : sample_packets()) {
    for (size_t len = 0; len < packet.size(); ++len) {
      EXPECT_EQ(decode_everything(std::span(packet).first(len)), 0)
          << "accepted a " << len << "-byte prefix of a " << packet.size()
          << "-byte packet";
    }
  }
}

TEST(WireFuzz, CrossDecodingIsRejected) {
  // A valid packet of one type must not decode as any other type.
  const auto packets = sample_packets();
  EXPECT_FALSE(decode_token(packets[0]).has_value());
  EXPECT_FALSE(decode_join(packets[0]).has_value());
  EXPECT_FALSE(decode_commit(packets[0]).has_value());
  EXPECT_FALSE(decode_data(packets[1]).has_value());
  EXPECT_FALSE(decode_data(packets[2]).has_value());
  EXPECT_FALSE(decode_data(packets[3]).has_value());
}

TEST(WireFuzz, BitFlipsNeverCrashAndAlwaysReject) {
  // CRC-32 has Hamming distance >= 4 up to 91,607 bits (Koopman), far past
  // the largest packet here, so every 1-3 bit error must be caught.
  util::Rng rng(0xF1A6);
  int accepted = 0;
  int trials = 0;
  for (const auto& packet : sample_packets()) {
    for (int iter = 0; iter < 400; ++iter) {
      std::vector<std::byte> mutated = packet;
      const int flips = 1 + static_cast<int>(rng.next() % 3);
      for (int f = 0; f < flips; ++f) {
        const size_t pos = rng.next() % mutated.size();
        mutated[pos] ^= std::byte{uint8_t(1u << (rng.next() % 8))};
      }
      if (mutated == packet) continue;  // the flips cancelled out
      ++trials;
      accepted += decode_everything(mutated) > 0 ? 1 : 0;
    }
  }
  EXPECT_GT(trials, 0);
  EXPECT_EQ(accepted, 0) << "of " << trials << " mutated packets";
}

TEST(WireFuzz, RandomGarbageNeverCrashes) {
  util::Rng rng(0xBAD5EED);
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t len = rng.next() % 160;
    std::vector<std::byte> garbage(len);
    for (auto& b : garbage) b = std::byte{uint8_t(rng.next())};
    EXPECT_EQ(decode_everything(garbage), 0);
  }
}

TEST(WireFuzz, TrailingBytesAreRejected) {
  // A packet with extra bytes appended is not the packet that was sent.
  for (const auto& packet : sample_packets()) {
    std::vector<std::byte> padded = packet;
    padded.push_back(std::byte{0});
    EXPECT_EQ(decode_everything(padded), 0)
        << "accepted a packet with a trailing byte";
  }
}

}  // namespace
}  // namespace accelring::protocol
