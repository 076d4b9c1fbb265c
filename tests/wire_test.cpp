// Unit tests for the wire codecs.
#include "protocol/wire.hpp"

#include <gtest/gtest.h>

#include "util/bytes.hpp"
#include "util/crc32.hpp"

namespace accelring::protocol {
namespace {

DataMsg sample_data() {
  DataMsg m;
  m.ring_id = 0x10001;
  m.seq = 12345;
  m.pid = 3;
  m.round = 77;
  m.service = Service::kSafe;
  m.post_token = true;
  m.recovered = false;
  m.header_pad = 16;
  m.payload = util::to_vector(util::as_bytes("payload-data"));
  return m;
}

TEST(DataCodec, RoundTrip) {
  const DataMsg m = sample_data();
  const auto bytes = encode(m);
  const auto d = decode_data(bytes);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->ring_id, m.ring_id);
  EXPECT_EQ(d->seq, m.seq);
  EXPECT_EQ(d->pid, m.pid);
  EXPECT_EQ(d->round, m.round);
  EXPECT_EQ(d->service, Service::kSafe);
  EXPECT_TRUE(d->post_token);
  EXPECT_FALSE(d->recovered);
  EXPECT_EQ(d->header_pad, 16);
  EXPECT_EQ(d->payload, m.payload);
}

TEST(DataCodec, EncodedSizeMatchesPrediction) {
  const DataMsg m = sample_data();
  EXPECT_EQ(encode(m).size(),
            DataMsg::encoded_size(m.payload.size(), m.header_pad));
}

TEST(DataCodec, AllServiceLevelsSurvive) {
  for (Service s : {Service::kReliable, Service::kFifo, Service::kCausal,
                    Service::kAgreed, Service::kSafe}) {
    DataMsg m = sample_data();
    m.service = s;
    const auto d = decode_data(encode(m));
    ASSERT_TRUE(d.has_value()) << service_name(s);
    EXPECT_EQ(d->service, s);
  }
}

TEST(DataCodec, EmptyPayloadAllowed) {
  DataMsg m = sample_data();
  m.payload.clear();
  m.header_pad = 0;
  const auto d = decode_data(encode(m));
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->payload.empty());
}

TEST(DataCodec, CorruptionRejected) {
  auto bytes = encode(sample_data());
  bytes[10] ^= std::byte{0x40};
  EXPECT_FALSE(decode_data(bytes).has_value());
}

TEST(DataCodec, TruncationRejected) {
  const auto bytes = encode(sample_data());
  for (size_t cut : {size_t{0}, size_t{1}, size_t{4}, bytes.size() - 1}) {
    EXPECT_FALSE(
        decode_data(std::span(bytes).first(cut)).has_value());
  }
}

TEST(DataCodec, TrailingGarbageRejected) {
  auto bytes = encode(sample_data());
  bytes.push_back(std::byte{0});
  EXPECT_FALSE(decode_data(bytes).has_value());
}

TEST(DataCodec, UndefinedFlagBitsRejected) {
  // The flags byte (offset 1) carries the service in its low three bits;
  // 5-7 name no service, and bits 0x40 and 0x80 are undefined. A packet
  // re-sealed with either must not decode, CRC notwithstanding.
  const auto packet = encode(sample_data());
  for (uint8_t bad : {uint8_t{5}, uint8_t{6}, uint8_t{7}, uint8_t{0x43},
                      uint8_t{0x83}}) {
    std::vector<std::byte> body(packet.begin(), packet.end() - 4);
    body[1] = std::byte{bad};
    util::Writer w;
    w.raw(body);
    util::seal(w);
    EXPECT_FALSE(decode_data(std::move(w).take()).has_value())
        << "flags 0x" << std::hex << int{bad};
  }
}

TokenMsg sample_token() {
  TokenMsg t;
  t.ring_id = 0x20002;
  t.token_id = 999;
  t.round = 55;
  t.seq = 1'000'000;
  t.aru = 999'990;
  t.aru_id = 5;
  t.fcc = 123;
  t.rtr = {100, 205, 300000};
  return t;
}

TEST(TokenCodec, RoundTrip) {
  const TokenMsg t = sample_token();
  const auto d = decode_token(encode(t));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->ring_id, t.ring_id);
  EXPECT_EQ(d->token_id, t.token_id);
  EXPECT_EQ(d->round, t.round);
  EXPECT_EQ(d->seq, t.seq);
  EXPECT_EQ(d->aru, t.aru);
  EXPECT_EQ(d->aru_id, t.aru_id);
  EXPECT_EQ(d->fcc, t.fcc);
  EXPECT_EQ(d->rtr, t.rtr);
}

TEST(TokenCodec, EmptyRtrList) {
  TokenMsg t = sample_token();
  t.rtr.clear();
  const auto d = decode_token(encode(t));
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->rtr.empty());
}

TEST(TokenCodec, LargeRtrList) {
  TokenMsg t = sample_token();
  t.rtr.clear();
  for (SeqNum s = 1; s <= 500; ++s) t.rtr.push_back(s * 3);
  const auto d = decode_token(encode(t));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->rtr.size(), 500u);
  EXPECT_EQ(d->rtr.back(), 1500);
}

TEST(TokenCodec, HealthVectorRoundTrip) {
  TokenMsg t = sample_token();
  for (ProcessId p = 0; p < 3; ++p) {
    TokenHealth h;
    h.pid = p;
    h.hold_us = 100 + p;
    h.work = 7 * (p + 1);
    h.rtr_count = static_cast<uint16_t>(p);
    h.backlog = static_cast<uint16_t>(40 + p);
    t.health.push_back(h);
  }
  const auto d = decode_token(encode(t));
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->health.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(d->health[i].pid, t.health[i].pid);
    EXPECT_EQ(d->health[i].hold_us, t.health[i].hold_us);
    EXPECT_EQ(d->health[i].work, t.health[i].work);
    EXPECT_EQ(d->health[i].rtr_count, t.health[i].rtr_count);
    EXPECT_EQ(d->health[i].backlog, t.health[i].backlog);
  }
}

TEST(TokenCodec, EmptyHealthOmitsTheSection) {
  // The health vector is an optional trailing section: with no entries the
  // encoding must be byte-identical to a pre-gray-failure build's token, so
  // mixed deployments interoperate and gray-disabled benches stay
  // bit-identical.
  TokenMsg bare = sample_token();
  const size_t bare_size = encode(bare).size();
  TokenMsg with = sample_token();
  with.health.push_back(TokenHealth{});
  EXPECT_GT(encode(with).size(), bare_size);
  const auto d = decode_token(encode(bare));
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->health.empty());
}

TEST(TokenCodec, TruncatedHealthRejected) {
  TokenMsg t = sample_token();
  TokenHealth h;
  h.pid = 2;
  t.health.assign(4, h);
  auto bytes = encode(t);
  bytes.resize(bytes.size() - 10);  // cut into the health entries
  EXPECT_FALSE(decode_token(bytes).has_value());
}

TEST(TokenCodec, BogusRtrCountRejected) {
  auto bytes = encode(sample_token());
  // Flip a bit in the CRC so it still fails safely, then check a direct
  // truncation: either way decode must not read out of bounds.
  bytes.resize(bytes.size() - 8);
  EXPECT_FALSE(decode_token(bytes).has_value());
}

TEST(JoinCodec, RoundTrip) {
  JoinMsg j;
  j.sender = 4;
  j.old_ring_id = 0x30003;
  j.proc_set = {1, 2, 4, 7};
  j.fail_set = {3};
  const auto d = decode_join(encode(j));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->sender, 4);
  EXPECT_EQ(d->old_ring_id, j.old_ring_id);
  EXPECT_EQ(d->proc_set, j.proc_set);
  EXPECT_EQ(d->fail_set, j.fail_set);
}

TEST(JoinCodec, EmptySetsAllowed) {
  JoinMsg j;
  j.sender = 0;
  const auto d = decode_join(encode(j));
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->proc_set.empty());
  EXPECT_TRUE(d->fail_set.empty());
}

TEST(JoinCodec, QuarantineSetRoundTrip) {
  JoinMsg j;
  j.sender = 4;
  j.proc_set = {1, 2, 4};
  j.quarantine_set = {{3, 24}, {9, 96}};
  const auto d = decode_join(encode(j));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->quarantine_set, j.quarantine_set);
}

TEST(JoinCodec, EmptyQuarantineSetOmitsTheSection) {
  // Same optional-trailing-section contract as the token's health vector:
  // a join with no quarantine verdicts must encode byte-identically to a
  // pre-gray-failure build's join.
  JoinMsg bare;
  bare.sender = 2;
  bare.proc_set = {1, 2};
  const size_t bare_size = encode(bare).size();
  JoinMsg with = bare;
  with.quarantine_set = {{5, 24}};
  EXPECT_GT(encode(with).size(), bare_size);
  const auto d = decode_join(encode(bare));
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->quarantine_set.empty());
}

TEST(JoinCodec, TruncatedQuarantineSetRejected) {
  JoinMsg j;
  j.sender = 1;
  j.proc_set = {1, 2, 3};
  j.quarantine_set = {{4, 24}, {5, 48}};
  auto bytes = encode(j);
  bytes.resize(bytes.size() - 3);  // cut into the quarantine entries
  EXPECT_FALSE(decode_join(bytes).has_value());
}

TEST(CommitCodec, RoundTrip) {
  CommitTokenMsg c;
  c.new_ring_id = 0x40004;
  c.token_id = 12;
  c.rotation = 1;
  for (int i = 0; i < 4; ++i) {
    CommitEntry e;
    e.pid = static_cast<ProcessId>(i);
    e.old_ring_id = 0x100 + i;
    e.old_aru = 50 + i;
    e.old_high_seq = 80 + i;
    e.old_safe_line = 45 + i;
    e.filled = (i % 2) == 0;
    c.members.push_back(e);
  }
  const auto d = decode_commit(encode(c));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->new_ring_id, c.new_ring_id);
  EXPECT_EQ(d->rotation, 1);
  ASSERT_EQ(d->members.size(), 4u);
  EXPECT_EQ(d->members[2].old_aru, 52);
  EXPECT_EQ(d->members[2].old_safe_line, 47);
  EXPECT_TRUE(d->members[2].filled);
  EXPECT_FALSE(d->members[3].filled);
}

TEST(PeekType, IdentifiesAllTypes) {
  EXPECT_EQ(peek_type(encode(sample_data())), PacketType::kData);
  EXPECT_EQ(peek_type(encode(sample_token())), PacketType::kToken);
  EXPECT_EQ(peek_type(encode(JoinMsg{})), PacketType::kJoin);
  EXPECT_EQ(peek_type(encode(CommitTokenMsg{})), PacketType::kCommitToken);
  EXPECT_FALSE(peek_type({}).has_value());
  const std::byte junk[] = {std::byte{99}};
  EXPECT_FALSE(peek_type(junk).has_value());
}

TEST(CrossDecode, WrongTypeRejected) {
  const auto data_bytes = encode(sample_data());
  const auto token_bytes = encode(sample_token());
  EXPECT_FALSE(decode_token(data_bytes).has_value());
  EXPECT_FALSE(decode_data(token_bytes).has_value());
  EXPECT_FALSE(decode_join(token_bytes).has_value());
  EXPECT_FALSE(decode_commit(data_bytes).has_value());
}

TEST(DataCodec, RecoveredEncapsulationRoundTrip) {
  // A recovered message carries a fully encoded old-ring message as payload.
  DataMsg inner = sample_data();
  DataMsg outer;
  outer.ring_id = 0x50005;
  outer.seq = 1;
  outer.pid = 9;
  outer.round = 1;
  outer.recovered = true;
  outer.payload = encode(inner);
  const auto d = decode_data(encode(outer));
  ASSERT_TRUE(d.has_value());
  ASSERT_TRUE(d->recovered);
  const auto inner_decoded = decode_data(d->payload);
  ASSERT_TRUE(inner_decoded.has_value());
  EXPECT_EQ(inner_decoded->seq, inner.seq);
  EXPECT_EQ(inner_decoded->ring_id, inner.ring_id);
}

}  // namespace
}  // namespace accelring::protocol
