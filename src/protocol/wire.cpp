#include "protocol/wire.hpp"

#include "util/crc32.hpp"

namespace accelring::protocol {
namespace {

using util::Reader;
using util::Writer;

constexpr uint8_t kFlagPostToken = 0x08;
constexpr uint8_t kFlagRecovered = 0x10;
constexpr uint8_t kFlagPacked = 0x20;
constexpr uint8_t kServiceMask = 0x07;
constexpr uint8_t kFlagsUndefined = 0xC0;

}  // namespace

std::optional<PacketType> peek_type(std::span<const std::byte> packet) {
  if (packet.empty()) return std::nullopt;
  const auto t = static_cast<uint8_t>(packet[0]);
  if (t < 1 || t > 4) return std::nullopt;
  return static_cast<PacketType>(t);
}

// --- data ------------------------------------------------------------------

size_t DataMsg::encoded_size(size_t payload_len, uint16_t pad) {
  // type + flags + pid + ring + seq + round + pad_len + pad + payload_len +
  // payload + crc
  return 1 + 1 + 2 + 8 + 8 + 8 + 2 + pad + 4 + payload_len + 4;
}

std::vector<std::byte> encode(const DataMsg& msg) {
  Writer w(DataMsg::encoded_size(msg.payload.size(), msg.header_pad));
  w.u8(static_cast<uint8_t>(PacketType::kData));
  uint8_t flags = static_cast<uint8_t>(msg.service) & kServiceMask;
  if (msg.post_token) flags |= kFlagPostToken;
  if (msg.recovered) flags |= kFlagRecovered;
  if (msg.packed) flags |= kFlagPacked;
  w.u8(flags);
  w.u16(msg.pid);
  w.u64(msg.ring_id);
  w.i64(msg.seq);
  w.u64(msg.round);
  w.u16(msg.header_pad);
  for (uint16_t i = 0; i < msg.header_pad; ++i) w.u8(0);
  w.bytes(msg.payload);
  util::seal(w);
  return std::move(w).take();
}

std::optional<DataMsg> decode_data(std::span<const std::byte> packet) {
  const auto body = util::unseal(packet);
  if (!body) return std::nullopt;
  Reader r(*body);
  if (r.u8() != static_cast<uint8_t>(PacketType::kData)) return std::nullopt;
  DataMsg msg;
  const uint8_t flags = r.u8();
  if ((flags & kFlagsUndefined) != 0) return std::nullopt;
  if ((flags & kServiceMask) > static_cast<uint8_t>(Service::kSafe)) {
    return std::nullopt;
  }
  msg.service = static_cast<Service>(flags & kServiceMask);
  msg.post_token = (flags & kFlagPostToken) != 0;
  msg.recovered = (flags & kFlagRecovered) != 0;
  msg.packed = (flags & kFlagPacked) != 0;
  msg.pid = r.u16();
  msg.ring_id = r.u64();
  msg.seq = r.i64();
  msg.round = r.u64();
  msg.header_pad = r.u16();
  r.raw(msg.header_pad);
  msg.payload = util::to_vector(r.bytes());
  if (!r.done()) return std::nullopt;
  return msg;
}

// --- token -----------------------------------------------------------------

std::vector<std::byte> encode(const TokenMsg& msg) {
  Writer w(64 + 8 * msg.rtr.size() + 14 * msg.health.size());
  w.u8(static_cast<uint8_t>(PacketType::kToken));
  w.u64(msg.ring_id);
  w.u64(msg.token_id);
  w.u64(msg.round);
  w.i64(msg.seq);
  w.i64(msg.aru);
  w.u16(msg.aru_id);
  w.u32(msg.fcc);
  w.u32(static_cast<uint32_t>(msg.rtr.size()));
  for (SeqNum s : msg.rtr) w.i64(s);
  // Health vector: optional trailing section, omitted entirely when empty so
  // deployments without gray-failure detection emit byte-identical tokens to
  // older builds (and decoders for those builds still parse ours).
  if (!msg.health.empty()) {
    w.u16(static_cast<uint16_t>(msg.health.size()));
    for (const TokenHealth& h : msg.health) {
      w.u16(h.pid);
      w.u32(h.hold_us);
      w.u32(h.work);
      w.u16(h.rtr_count);
      w.u16(h.backlog);
    }
  }
  util::seal(w);
  return std::move(w).take();
}

std::optional<TokenMsg> decode_token(std::span<const std::byte> packet) {
  const auto body = util::unseal(packet);
  if (!body) return std::nullopt;
  Reader r(*body);
  if (r.u8() != static_cast<uint8_t>(PacketType::kToken)) return std::nullopt;
  TokenMsg msg;
  msg.ring_id = r.u64();
  msg.token_id = r.u64();
  msg.round = r.u64();
  msg.seq = r.i64();
  msg.aru = r.i64();
  msg.aru_id = r.u16();
  msg.fcc = r.u32();
  const uint32_t n = r.u32();
  if (static_cast<size_t>(n) * 8 > r.remaining()) return std::nullopt;
  msg.rtr.reserve(n);
  for (uint32_t i = 0; i < n; ++i) msg.rtr.push_back(r.i64());
  if (r.remaining() > 0) {
    const uint16_t nh = r.u16();
    if (static_cast<size_t>(nh) * 14 > r.remaining()) return std::nullopt;
    msg.health.reserve(nh);
    for (uint16_t i = 0; i < nh; ++i) {
      TokenHealth h;
      h.pid = r.u16();
      h.hold_us = r.u32();
      h.work = r.u32();
      h.rtr_count = r.u16();
      h.backlog = r.u16();
      msg.health.push_back(h);
    }
  }
  if (!r.done()) return std::nullopt;
  return msg;
}

// --- join ------------------------------------------------------------------

std::vector<std::byte> encode(const JoinMsg& msg) {
  Writer w(32 + 2 * (msg.proc_set.size() + msg.fail_set.size()));
  w.u8(static_cast<uint8_t>(PacketType::kJoin));
  w.u16(msg.sender);
  w.u64(msg.old_ring_id);
  w.u16(static_cast<uint16_t>(msg.proc_set.size()));
  for (ProcessId p : msg.proc_set) w.u16(p);
  w.u16(static_cast<uint16_t>(msg.fail_set.size()));
  for (ProcessId p : msg.fail_set) w.u16(p);
  // Quarantine set: optional trailing section (see the token health vector).
  if (!msg.quarantine_set.empty()) {
    w.u16(static_cast<uint16_t>(msg.quarantine_set.size()));
    for (const auto& [pid, hold] : msg.quarantine_set) {
      w.u16(pid);
      w.u32(hold);
    }
  }
  util::seal(w);
  return std::move(w).take();
}

std::optional<JoinMsg> decode_join(std::span<const std::byte> packet) {
  const auto body = util::unseal(packet);
  if (!body) return std::nullopt;
  Reader r(*body);
  if (r.u8() != static_cast<uint8_t>(PacketType::kJoin)) return std::nullopt;
  JoinMsg msg;
  msg.sender = r.u16();
  msg.old_ring_id = r.u64();
  const uint16_t np = r.u16();
  for (uint16_t i = 0; i < np && r.ok(); ++i) msg.proc_set.push_back(r.u16());
  const uint16_t nf = r.u16();
  for (uint16_t i = 0; i < nf && r.ok(); ++i) msg.fail_set.push_back(r.u16());
  if (r.remaining() > 0) {
    const uint16_t nq = r.u16();
    if (static_cast<size_t>(nq) * 6 > r.remaining()) return std::nullopt;
    for (uint16_t i = 0; i < nq; ++i) {
      const ProcessId pid = r.u16();
      const uint32_t hold = r.u32();
      msg.quarantine_set.emplace_back(pid, hold);
    }
  }
  if (!r.done()) return std::nullopt;
  return msg;
}

// --- commit token ----------------------------------------------------------

std::vector<std::byte> encode(const CommitTokenMsg& msg) {
  Writer w(32 + 32 * msg.members.size());
  w.u8(static_cast<uint8_t>(PacketType::kCommitToken));
  w.u64(msg.new_ring_id);
  w.u64(msg.token_id);
  w.u8(msg.rotation);
  w.u16(static_cast<uint16_t>(msg.members.size()));
  for (const CommitEntry& e : msg.members) {
    w.u16(e.pid);
    w.u64(e.old_ring_id);
    w.i64(e.old_aru);
    w.i64(e.old_high_seq);
    w.i64(e.old_safe_line);
    w.boolean(e.filled);
  }
  util::seal(w);
  return std::move(w).take();
}

std::optional<CommitTokenMsg> decode_commit(
    std::span<const std::byte> packet) {
  const auto body = util::unseal(packet);
  if (!body) return std::nullopt;
  Reader r(*body);
  if (r.u8() != static_cast<uint8_t>(PacketType::kCommitToken)) {
    return std::nullopt;
  }
  CommitTokenMsg msg;
  msg.new_ring_id = r.u64();
  msg.token_id = r.u64();
  msg.rotation = r.u8();
  const uint16_t n = r.u16();
  for (uint16_t i = 0; i < n && r.ok(); ++i) {
    CommitEntry e;
    e.pid = r.u16();
    e.old_ring_id = r.u64();
    e.old_aru = r.i64();
    e.old_high_seq = r.i64();
    e.old_safe_line = r.i64();
    e.filled = r.boolean();
    msg.members.push_back(e);
  }
  if (!r.done()) return std::nullopt;
  return msg;
}

}  // namespace accelring::protocol
