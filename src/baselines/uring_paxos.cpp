#include "baselines/uring_paxos.hpp"

#include <algorithm>

#include "util/bytes.hpp"
#include "util/crc32.hpp"

namespace accelring::baselines {

namespace {

constexpr uint8_t kValue = 20;  // client -> coordinator
constexpr uint8_t kBatch = 21;  // ring hop (id 0 = watermark-only message)
constexpr uint8_t kAckB = 22;   // majority position -> coordinator
constexpr uint8_t kNakB = 23;   // anyone -> coordinator

// How many delivered batches the coordinator keeps for NAK service.
constexpr uint64_t kCoordinatorHistory = 512;

// Keep batch datagrams near the 8KB values Ring Paxos uses; very large UDP
// datagrams fragment heavily and amplify loss.
constexpr size_t kBatchMaxBytes = 8 * 1024;
constexpr Nanos kFlushInterval = util::usec(150);  // batch/idle timer
constexpr uint32_t kWindow = 8;  // undecided batches in flight
constexpr Nanos kNakDelay = util::usec(700);
// Client-side re-send of values the coordinator has not sequenced yet.
constexpr Nanos kValueRetransmit = util::msec(5);

/// Unseal `packet` and check its type byte; the reader starts after it.
std::optional<util::Reader> unseal(std::span<const std::byte> packet,
                                   uint8_t expected_type) {
  const auto body = util::unseal(packet);
  if (!body || (*body)[0] != std::byte{expected_type}) return std::nullopt;
  return util::Reader(body->subspan(1));
}

}  // namespace

URingProtocol::URingProtocol(ProcessId self, RingConfig members,
                             URingConfig cfg, Host& host)
    : self_(self), members_(std::move(members)), cfg_(cfg), host_(host) {
  if (is_coordinator()) {
    host_.set_timer(protocol::kTimerBaselineFlush, kFlushInterval);
  }
}

size_t URingProtocol::my_ring_position() const {
  return static_cast<size_t>(members_.index_of(self_));
}

bool URingProtocol::submit(std::vector<std::byte> payload) {
  if (pending_.size() >= cfg_.max_pending ||
      unacked_values_.size() >= cfg_.max_pending) {
    ++stats_.submit_rejected;
    return false;
  }
  ++stats_.submitted;
  if (is_coordinator()) {
    pending_.push_back(Entry{self_, std::move(payload)});
    flush_pending(/*force=*/false);
    return true;
  }
  const uint64_t seq = ++client_seq_;
  send_value(seq, payload);
  unacked_values_.emplace(seq, std::move(payload));
  if (!value_timer_armed_) {
    value_timer_armed_ = true;
    host_.set_timer(protocol::kTimerBaselineFlush, kValueRetransmit);
  }
  return true;
}

void URingProtocol::send_value(uint64_t client_seq,
                               const std::vector<std::byte>& body) {
  util::Writer w(32 + body.size());
  w.u8(kValue);
  w.u16(self_);
  w.u64(client_seq);
  w.bytes(body);
  util::seal(w);
  ++stats_.forwarded;
  host_.unicast(members_.members.front(), protocol::kSockData,
                std::move(w).take());
}

void URingProtocol::flush_pending(bool force) {
  // Batch formation: wait for a full batch unless forced by the flush timer
  // — this is what amortizes per-instance cost ("with batching", §V).
  if (!force && pending_.size() < cfg_.batch_max_msgs) return;
  while (!pending_.empty() && next_batch_ - decided_ < kWindow) {
    Batch batch;
    batch.id = ++next_batch_;
    size_t bytes = 0;
    while (!pending_.empty() && batch.entries.size() < cfg_.batch_max_msgs &&
           bytes < kBatchMaxBytes) {
      bytes += pending_.front().payload.size();
      batch.entries.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    ++stats_.batches;
    send_batch_to_successor(batch, decided_);
    published_ = decided_;
    high_batch_ = batch.id;
    store_.emplace(batch.id, std::move(batch));
  }
}

std::vector<std::byte> URingProtocol::encode_batch(
    const Batch& batch, uint64_t decided_upto) const {
  size_t payload_bytes = 0;
  for (const Entry& e : batch.entries) payload_bytes += e.payload.size();
  util::Writer w(48 + payload_bytes + 8 * batch.entries.size());
  w.u8(kBatch);
  w.u64(batch.id);
  w.u64(decided_upto);
  w.u16(static_cast<uint16_t>(batch.entries.size()));
  for (const Entry& e : batch.entries) {
    w.u16(e.origin);
    w.bytes(e.payload);
  }
  util::seal(w);
  return std::move(w).take();
}

void URingProtocol::send_batch_to_successor(const Batch& batch,
                                            uint64_t decided_upto) {
  const ProcessId next = members_.successor_of(self_);
  if (next == members_.members.front()) return;  // full circle: stop
  host_.unicast(next, protocol::kSockData, encode_batch(batch, decided_upto));
}

void URingProtocol::on_packet(SocketId, std::span<const std::byte> packet) {
  if (packet.empty()) return;
  switch (static_cast<uint8_t>(packet[0])) {
    case kValue: {
      if (!is_coordinator()) return;
      auto r = unseal(packet, kValue);
      if (!r) return;
      const ProcessId origin = r->u16();
      const uint64_t client_seq = r->u64();
      auto payload = util::to_vector(r->bytes());
      if (!r->done()) return;
      // Per-client FIFO ingestion dedupes retransmitted values and keeps
      // client submission order.
      ClientIngest& ingest = ingest_[origin];
      if (client_seq < ingest.expected ||
          ingest.reorder.contains(client_seq)) {
        ++stats_.duplicates;
        return;
      }
      ingest.reorder.emplace(client_seq, std::move(payload));
      while (true) {
        const auto it = ingest.reorder.find(ingest.expected);
        if (it == ingest.reorder.end()) break;
        if (pending_.size() >= cfg_.max_pending) {
          ++stats_.submit_rejected;
          break;
        }
        pending_.push_back(Entry{origin, std::move(it->second)});
        ingest.reorder.erase(it);
        ++ingest.expected;
      }
      flush_pending(/*force=*/false);
      break;
    }
    case kBatch: {
      auto r = unseal(packet, kBatch);
      if (!r) return;
      Batch batch;
      batch.id = r->u64();
      const uint64_t decided_upto = r->u64();
      const uint16_t n = r->u16();
      for (uint16_t i = 0; i < n && r->ok(); ++i) {
        Entry e;
        e.origin = r->u16();
        e.payload = util::to_vector(r->bytes());
        batch.entries.push_back(std::move(e));
      }
      if (!r->done()) return;
      handle_batch(std::move(batch), decided_upto);
      break;
    }
    case kAckB: {
      if (!is_coordinator()) return;
      auto r = unseal(packet, kAckB);
      if (!r) return;
      acks_[r->u64()] = true;
      while (acks_.contains(decided_ + 1)) {
        acks_.erase(decided_ + 1);
        ++decided_;
        ++stats_.decided;
      }
      advance_decided(decided_);
      flush_pending(/*force=*/false);  // window may have opened
      break;
    }
    case kNakB: {
      if (!is_coordinator()) return;
      auto r = unseal(packet, kNakB);
      if (!r) return;
      const ProcessId requester = r->u16();
      const uint32_t n = r->u32();
      for (uint32_t i = 0; i < n && r->ok(); ++i) {
        const uint64_t id = r->u64();
        const auto it = store_.find(id);
        if (it == store_.end()) continue;
        ++stats_.retransmitted;
        host_.unicast(requester, protocol::kSockData,
                      encode_batch(it->second, decided_));
      }
      break;
    }
    default:
      break;
  }
}

void URingProtocol::handle_batch(Batch batch, uint64_t decided_upto) {
  const uint64_t id = batch.id;
  if (id == 0) {
    // Watermark-only circulation: learn the decision and pass it on.
    advance_decided(decided_upto);
    Batch watermark;  // empty, id 0
    send_batch_to_successor(watermark, decided_upto);
    return;
  }
  if (id < delivered_next_) {
    ++stats_.duplicates;  // already delivered: nothing downstream needs it
    advance_decided(decided_upto);
    return;
  }
  const bool fresh = !store_.contains(id);
  if (fresh) {
    high_batch_ = std::max(high_batch_, id);
  } else {
    // A retransmission of a batch we hold but have not delivered: the
    // coordinator is healing a lost hop somewhere downstream — keep
    // forwarding (and re-ack below, in case our ack was the loss).
    ++stats_.duplicates;
  }
  // Vote collection: the process at the majority position reports back.
  const size_t majority = members_.size() / 2 + 1;
  if (my_ring_position() + 1 == majority) {
    util::Writer w(16);
    w.u8(kAckB);
    w.u64(id);
    util::seal(w);
    host_.unicast(members_.members.front(), protocol::kSockData,
                  std::move(w).take());
  }
  // Keep propagating around the ring (dissemination to all learners).
  send_batch_to_successor(batch, decided_upto);
  if (fresh) store_.emplace(id, std::move(batch));
  advance_decided(decided_upto);

  // Gap detection: a missing id below the high watermark means a lost hop.
  bool gap = false;
  for (uint64_t b = delivered_next_; b < high_batch_; ++b) {
    if (!store_.contains(b) && b >= delivered_next_) {
      gap = true;
      break;
    }
  }
  if (gap && !nak_armed_ && !is_coordinator()) {
    nak_armed_ = true;
    host_.set_timer(protocol::kTimerBaselineNak, kNakDelay);
  }
}

void URingProtocol::advance_decided(uint64_t decided_upto) {
  decided_upto_ = std::max(decided_upto_, decided_upto);
  deliver_decided();
}

void URingProtocol::deliver_decided() {
  while (delivered_next_ <= decided_upto_) {
    const auto it = store_.find(delivered_next_);
    if (it == store_.end()) {
      // A decided batch we never received (lost after the majority voter):
      // it will not be re-sent on its own, so request it.
      if (!nak_armed_ && !is_coordinator()) {
        nak_armed_ = true;
        host_.set_timer(protocol::kTimerBaselineNak, kNakDelay);
      }
      return;
    }
    for (Entry& e : it->second.entries) {
      if (e.origin == self_ && !is_coordinator()) {
        // Our value came back decided: cumulative ack (the coordinator
        // ingests per-client in FIFO order).
        ++own_delivered_;
        unacked_values_.erase(unacked_values_.begin(),
                              unacked_values_.upper_bound(own_delivered_));
      }
      protocol::Delivery delivery;
      delivery.sender = e.origin;
      delivery.seq = static_cast<protocol::SeqNum>(it->first);
      delivery.service = protocol::Service::kAgreed;
      // The coordinator keeps its copy intact: it is the NAK retransmission
      // source for the whole ring.
      delivery.payload = is_coordinator() ? e.payload : std::move(e.payload);
      ++stats_.delivered;
      host_.deliver(delivery);
    }
    if (!is_coordinator()) {
      store_.erase(it);
    }
    ++delivered_next_;
  }
  if (is_coordinator()) {
    // Bounded NAK history (real Paxos acceptors persist their log; a
    // straggler further behind than this window would need state transfer).
    while (!store_.empty() &&
           store_.begin()->first + kCoordinatorHistory < delivered_next_) {
      store_.erase(store_.begin());
    }
  }
}

void URingProtocol::on_timer(protocol::TimerKind kind) {
  switch (kind) {
    case protocol::kTimerBaselineFlush: {
      if (!is_coordinator()) {
        // Client side: re-send values the coordinator has not sequenced.
        value_timer_armed_ = false;
        if (!unacked_values_.empty()) {
          int sent = 0;
          for (const auto& [seq, body] : unacked_values_) {
            if (++sent > 8) break;
            send_value(seq, body);
          }
          value_timer_armed_ = true;
          host_.set_timer(protocol::kTimerBaselineFlush, kValueRetransmit);
        }
        break;
      }
      flush_pending(/*force=*/true);
      // Circulate the decision watermark when receivers lack it, and
      // periodically re-circulate while idle in case a watermark hop was
      // lost (it is not NAKable: receivers cannot miss what they never
      // learn exists).
      ++flush_ticks_;
      if (decided_ > published_ ||
          (decided_ > 0 && next_batch_ == decided_ &&
           flush_ticks_ % 20 == 0)) {
        Batch watermark;  // id 0
        send_batch_to_successor(watermark, decided_);
        published_ = decided_;
      }
      // Undecided batch retransmission: only when the oldest outstanding
      // instance has made no progress for several ticks (a hop was lost
      // before the majority voter). A normal decision takes a ring
      // traversal, so retransmitting eagerly would congest the ring with
      // duplicate full batches.
      if (decided_ < next_batch_) {
        if (decided_ == last_seen_decided_) {
          ++stall_ticks_;
        } else {
          stall_ticks_ = 0;
          last_seen_decided_ = decided_;
        }
        if (stall_ticks_ >= 20) {  // ~3 ms at the default flush interval
          stall_ticks_ = 0;
          const auto it = store_.find(decided_ + 1);
          if (it != store_.end()) {
            ++stats_.retransmitted;
            send_batch_to_successor(it->second, decided_);
          }
        }
      }
      advance_decided(decided_);
      host_.set_timer(protocol::kTimerBaselineFlush, kFlushInterval);
      break;
    }
    case protocol::kTimerBaselineNak: {
      nak_armed_ = false;
      std::vector<uint64_t> missing;
      for (uint64_t b = delivered_next_;
           b <= high_batch_ && missing.size() < 64; ++b) {
        if (!store_.contains(b)) missing.push_back(b);
      }
      if (!missing.empty()) {
        util::Writer w(16 + 8 * missing.size());
        w.u8(kNakB);
        w.u16(self_);
        w.u32(static_cast<uint32_t>(missing.size()));
        for (uint64_t b : missing) w.u64(b);
        util::seal(w);
        ++stats_.naks_sent;
        host_.unicast(members_.members.front(), protocol::kSockData,
                      std::move(w).take());
        nak_armed_ = true;
        host_.set_timer(protocol::kTimerBaselineNak, kNakDelay);
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace accelring::baselines
