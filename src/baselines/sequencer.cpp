#include "baselines/sequencer.hpp"

#include "util/bytes.hpp"
#include "util/crc32.hpp"

namespace accelring::baselines {

namespace {

// Packet types above the ring protocol's range so peek_type() rejects them
// and the two protocols can never be confused on the wire.
constexpr uint8_t kForward = 10;  // sender -> sequencer
constexpr uint8_t kOrdered = 11;  // sequencer -> all
constexpr uint8_t kNak = 12;      // receiver -> sequencer
constexpr uint8_t kAck = 13;      // receiver -> sequencer

// How many messages a stall-heal or NAK answer resends at once.
constexpr SeqNum kResendBurst = 32;

constexpr Nanos kNakDelay = util::usec(500);
constexpr Nanos kAckInterval = util::msec(1);
// Re-send forwards the sequencer has not ordered yet (lost forwards).
constexpr Nanos kForwardRetransmit = util::msec(5);

/// Unseal `packet` and check its type byte; the reader starts after it.
std::optional<util::Reader> unseal(std::span<const std::byte> packet,
                                   uint8_t expected_type) {
  const auto body = util::unseal(packet);
  if (!body || (*body)[0] != std::byte{expected_type}) return std::nullopt;
  return util::Reader(body->subspan(1));
}

std::vector<std::byte> encode_ordered(SeqNum seq, ProcessId sender,
                                      uint64_t sender_seq,
                                      std::span<const std::byte> payload) {
  util::Writer w(48 + payload.size());
  w.u8(kOrdered);
  w.i64(seq);
  w.u16(sender);
  w.u64(sender_seq);
  w.bytes(payload);
  util::seal(w);
  return std::move(w).take();
}

}  // namespace

SequencerProtocol::SequencerProtocol(ProcessId self, RingConfig members,
                                     SequencerConfig cfg, Host& host)
    : self_(self), members_(std::move(members)), cfg_(cfg), host_(host) {
  if (!is_sequencer()) {
    host_.set_timer(protocol::kTimerBaselineAck, kAckInterval);
  }
}

bool SequencerProtocol::submit(std::vector<std::byte> payload) {
  if (pending_.size() >= cfg_.max_pending) {
    ++stats_.submit_rejected;
    return false;
  }
  ++stats_.submitted;
  pending_.push_back(std::move(payload));
  try_send_pending();
  return true;
}

void SequencerProtocol::try_send_pending() {
  while (!pending_.empty() && outstanding_ < cfg_.sender_window) {
    std::vector<std::byte> payload = std::move(pending_.front());
    pending_.pop_front();
    ++sender_seq_;
    ++outstanding_;
    if (is_sequencer()) {
      ingest_forward(self_, sender_seq_, std::move(payload));
      continue;
    }
    send_forward(sender_seq_, payload);
    unacked_.emplace(sender_seq_, std::move(payload));
    if (!forward_timer_armed_) {
      forward_timer_armed_ = true;
      host_.set_timer(protocol::kTimerBaselineFlush, kForwardRetransmit);
    }
  }
}

void SequencerProtocol::send_forward(uint64_t sender_seq,
                                     const std::vector<std::byte>& body) {
  util::Writer w(32 + body.size());
  w.u8(kForward);
  w.u16(self_);
  w.u64(sender_seq);
  w.bytes(body);
  util::seal(w);
  ++stats_.forwarded;
  host_.unicast(members_.members.front(), protocol::kSockData,
                std::move(w).take());
}

void SequencerProtocol::ingest_forward(ProcessId sender, uint64_t sender_seq,
                                       std::vector<std::byte> payload) {
  // Per-sender FIFO: forwards may arrive duplicated (retransmissions) or
  // reordered (a retransmission overtaking); order strictly by sender_seq.
  SenderIngest& ingest = ingest_[sender];
  if (sender_seq < ingest.expected || ingest.reorder.contains(sender_seq)) {
    ++stats_.duplicates;
    return;
  }
  ingest.reorder.emplace(sender_seq, std::move(payload));
  while (true) {
    const auto it = ingest.reorder.find(ingest.expected);
    if (it == ingest.reorder.end()) break;
    order_message(sender, ingest.expected, std::move(it->second));
    ingest.reorder.erase(it);
    ++ingest.expected;
  }
}

void SequencerProtocol::order_message(ProcessId sender, uint64_t sender_seq,
                                      std::vector<std::byte> payload) {
  const SeqNum seq = ++next_seq_;
  ++stats_.ordered;
  host_.multicast(protocol::kSockData,
                  encode_ordered(seq, sender, sender_seq, payload));
  history_.emplace(seq, Stored{sender, sender_seq, payload});
  // The sequencer does not hear its own multicast; handle locally.
  handle_ordered(seq, sender, sender_seq, std::move(payload));
}

void SequencerProtocol::on_packet(SocketId, std::span<const std::byte> packet) {
  if (packet.empty()) return;
  switch (static_cast<uint8_t>(packet[0])) {
    case kForward: {
      if (!is_sequencer()) return;
      auto r = unseal(packet, kForward);
      if (!r) return;
      const ProcessId sender = r->u16();
      const uint64_t sender_seq = r->u64();
      auto payload = util::to_vector(r->bytes());
      if (!r->done()) return;
      ingest_forward(sender, sender_seq, std::move(payload));
      break;
    }
    case kOrdered: {
      auto r = unseal(packet, kOrdered);
      if (!r) return;
      const SeqNum seq = r->i64();
      const ProcessId sender = r->u16();
      const uint64_t sender_seq = r->u64();
      auto payload = util::to_vector(r->bytes());
      if (!r->done()) return;
      handle_ordered(seq, sender, sender_seq, std::move(payload));
      break;
    }
    case kNak: {
      if (!is_sequencer()) return;
      auto r = unseal(packet, kNak);
      if (!r) return;
      const ProcessId requester = r->u16();
      const uint32_t n = r->u32();
      for (uint32_t i = 0; i < n && r->ok(); ++i) {
        const SeqNum seq = r->i64();
        const auto it = history_.find(seq);
        if (it == history_.end()) continue;
        ++stats_.retransmitted;
        host_.unicast(requester, protocol::kSockData,
                      encode_ordered(seq, it->second.sender,
                                     it->second.sender_seq,
                                     it->second.payload));
      }
      break;
    }
    case kAck: {
      if (!is_sequencer()) return;
      auto r = unseal(packet, kAck);
      if (!r) return;
      const ProcessId member = r->u16();
      const SeqNum aru = r->i64();
      MemberAck& ack = member_aru_[member];
      const SeqNum previous = ack.previous;
      ack.previous = ack.aru;
      ack.aru = std::max(ack.aru, aru);
      // Tail-loss heal: a member whose aru is stuck below the frontier will
      // never NAK (it cannot see the gap); push the next messages at it.
      if (ack.aru < next_seq_ && ack.aru == previous) {
        const SeqNum end = std::min(next_seq_, ack.aru + kResendBurst);
        for (SeqNum s = ack.aru + 1; s <= end; ++s) {
          const auto it = history_.find(s);
          if (it == history_.end()) continue;
          ++stats_.retransmitted;
          host_.unicast(member, protocol::kSockData,
                        encode_ordered(s, it->second.sender,
                                       it->second.sender_seq,
                                       it->second.payload));
        }
      }
      // Stability: everyone acked -> history below the minimum is garbage.
      if (member_aru_.size() + 1 == members_.size()) {
        SeqNum stable = aru_;  // our own aru counts too
        for (const auto& [pid, value] : member_aru_) {
          stable = std::min(stable, value.aru);
        }
        history_.erase(history_.begin(), history_.upper_bound(stable));
      }
      break;
    }
    default:
      break;
  }
}

void SequencerProtocol::handle_ordered(SeqNum seq, ProcessId sender,
                                       uint64_t sender_seq,
                                       std::vector<std::byte> payload) {
  if (sender == self_) {
    // Our forward was ordered: acknowledged up to this sender_seq (the
    // sequencer ingests per-sender in FIFO order, so this is cumulative).
    unacked_.erase(unacked_.begin(), unacked_.upper_bound(sender_seq));
  }
  if (seq <= aru_ || reorder_.contains(seq)) {
    ++stats_.duplicates;
    return;
  }
  high_seq_ = std::max(high_seq_, seq);
  reorder_.emplace(seq, Stored{sender, sender_seq, std::move(payload)});
  while (reorder_.contains(aru_ + 1)) ++aru_;
  deliver_ready();
  if (aru_ < high_seq_ && !nak_timer_armed_ && !is_sequencer()) {
    nak_timer_armed_ = true;
    host_.set_timer(protocol::kTimerBaselineNak, kNakDelay);
  }
}

void SequencerProtocol::deliver_ready() {
  while (true) {
    const auto it = reorder_.find(delivered_ + 1);
    if (it == reorder_.end()) break;
    protocol::Delivery delivery;
    delivery.sender = it->second.sender;
    delivery.seq = it->first;
    delivery.service = protocol::Service::kAgreed;
    delivery.payload = std::move(it->second.payload);
    if (delivery.sender == self_) {
      // One of ours came back ordered: window slot freed.
      if (outstanding_ > 0) --outstanding_;
    }
    ++delivered_;
    ++stats_.delivered;
    reorder_.erase(it);
    host_.deliver(delivery);
  }
  try_send_pending();
}

void SequencerProtocol::send_naks() {
  std::vector<SeqNum> missing;
  for (SeqNum s = aru_ + 1; s <= high_seq_ && missing.size() < 256; ++s) {
    if (!reorder_.contains(s)) missing.push_back(s);
  }
  if (missing.empty()) return;
  util::Writer w(16 + 8 * missing.size());
  w.u8(kNak);
  w.u16(self_);
  w.u32(static_cast<uint32_t>(missing.size()));
  for (SeqNum s : missing) w.i64(s);
  util::seal(w);
  ++stats_.naks_sent;
  host_.unicast(members_.members.front(), protocol::kSockData,
                std::move(w).take());
}

void SequencerProtocol::on_timer(protocol::TimerKind kind) {
  switch (kind) {
    case protocol::kTimerBaselineNak:
      nak_timer_armed_ = false;
      if (aru_ < high_seq_) {
        send_naks();
        nak_timer_armed_ = true;
        host_.set_timer(protocol::kTimerBaselineNak, kNakDelay);
      }
      break;
    case protocol::kTimerBaselineAck: {
      util::Writer w(16);
      w.u8(kAck);
      w.u16(self_);
      w.i64(aru_);
      util::seal(w);
      host_.unicast(members_.members.front(), protocol::kSockData,
                    std::move(w).take());
      host_.set_timer(protocol::kTimerBaselineAck, kAckInterval);
      break;
    }
    case protocol::kTimerBaselineFlush: {
      // Forward retransmission: re-send the oldest unordered forwards.
      forward_timer_armed_ = false;
      if (!unacked_.empty()) {
        int sent = 0;
        for (const auto& [sender_seq, body] : unacked_) {
          if (++sent > 8) break;
          send_forward(sender_seq, body);
        }
        forward_timer_armed_ = true;
        host_.set_timer(protocol::kTimerBaselineFlush, kForwardRetransmit);
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace accelring::baselines
