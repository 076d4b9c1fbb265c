#include "protocol/recv_buffer.hpp"

#include <algorithm>
#include <utility>

namespace accelring::protocol {

RecvBuffer::RecvBuffer(RecvBuffer&& other) noexcept {
  *this = std::move(other);
}

RecvBuffer& RecvBuffer::operator=(RecvBuffer&& other) noexcept {
  slots_ = std::exchange(other.slots_, {});
  count_ = std::exchange(other.count_, 0);
  local_aru_ = std::exchange(other.local_aru_, 0);
  high_seq_ = std::exchange(other.high_seq_, 0);
  delivered_ = std::exchange(other.delivered_, 0);
  discard_line_ = std::exchange(other.discard_line_, 0);
  return *this;
}

bool RecvBuffer::insert(DataMsg&& msg) {
  if (msg.seq <= discard_line_) return false;  // already stable everywhere
  if (msg.seq <= local_aru_) return false;     // duplicate below aru
  const SeqNum span = msg.seq - discard_line_;
  if (span > kMaxSpan) return false;  // beyond anything flow control allows
  if (span > static_cast<SeqNum>(slots_.size())) grow(span);
  Slot& slot = slots_[index(msg.seq)];
  if (slot.present) return false;  // duplicate
  slot.present = true;
  slot.msg = std::move(msg);
  ++count_;
  high_seq_ = std::max(high_seq_, slot.msg.seq);
  advance_aru();
  return true;
}

void RecvBuffer::grow(SeqNum span) {
  size_t capacity = std::max(slots_.size(), kInitialSlots);
  while (static_cast<SeqNum>(capacity) < span) capacity *= 2;
  std::vector<Slot> grown(capacity);
  for (Slot& slot : slots_) {
    if (slot.present) {
      grown[static_cast<size_t>(slot.msg.seq) & (capacity - 1)] =
          std::move(slot);
    }
  }
  slots_ = std::move(grown);
}

const RecvBuffer::Slot* RecvBuffer::slot_of(SeqNum seq) const {
  if (seq <= discard_line_ ||
      seq - discard_line_ > static_cast<SeqNum>(slots_.size())) {
    return nullptr;
  }
  const Slot& slot = slots_[index(seq)];
  return slot.present ? &slot : nullptr;
}

bool RecvBuffer::has(SeqNum seq) const {
  if (seq <= local_aru_) return true;
  return slot_of(seq) != nullptr;
}

const DataMsg* RecvBuffer::find(SeqNum seq) const {
  const Slot* slot = slot_of(seq);
  return slot == nullptr ? nullptr : &slot->msg;
}

void RecvBuffer::advance_aru() {
  while (slot_of(local_aru_ + 1) != nullptr) ++local_aru_;
}

const DataMsg* RecvBuffer::next_deliverable(SeqNum safe_line) {
  const Slot* slot = slot_of(delivered_ + 1);
  if (slot == nullptr) return nullptr;  // gap or nothing new
  const DataMsg& msg = slot->msg;
  if (requires_safe(msg.service) && msg.seq > safe_line) {
    // Not yet known received by all participants: blocks the total order.
    return nullptr;
  }
  return &msg;
}

void RecvBuffer::mark_delivered() { ++delivered_; }

void RecvBuffer::discard_up_to(SeqNum line) {
  line = std::min(line, delivered_);
  if (line <= discard_line_) return;
  const SeqNum end =
      std::min(line, discard_line_ + static_cast<SeqNum>(slots_.size()));
  for (SeqNum seq = discard_line_ + 1; seq <= end; ++seq) {
    Slot& slot = slots_[index(seq)];
    if (!slot.present) continue;
    slot.present = false;
    // Release the payload's memory; `= {}` would keep its capacity.
    std::vector<std::byte>().swap(slot.msg.payload);
    --count_;
  }
  discard_line_ = line;
}

std::vector<SeqNum> RecvBuffer::missing_up_to(
    SeqNum bound, const std::vector<SeqNum>& already_requested) const {
  std::vector<SeqNum> missing;
  for (SeqNum s = local_aru_ + 1; s <= bound; ++s) {
    if (slot_of(s) != nullptr) continue;
    bool requested = false;
    for (SeqNum r : already_requested) {
      if (r == s) {
        requested = true;
        break;
      }
    }
    if (!requested) missing.push_back(s);
  }
  return missing;
}

size_t RecvBuffer::undelivered() const {
  // Every seq in (discard line, delivered] is present: delivery stops at the
  // first gap, and nothing undelivered is discarded.
  return count_ - static_cast<size_t>(delivered_ - discard_line_);
}

}  // namespace accelring::protocol
