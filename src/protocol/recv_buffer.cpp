#include "protocol/recv_buffer.hpp"

#include <cassert>

namespace accelring::protocol {

bool RecvBuffer::insert(DataMsg&& msg) {
  if (msg.seq <= discard_line_) return false;  // already stable everywhere
  if (msg.seq <= local_aru_) return false;     // duplicate below aru
  const auto [it, inserted] = messages_.try_emplace(msg.seq, std::move(msg));
  if (!inserted) return false;  // duplicate
  high_seq_ = std::max(high_seq_, it->first);
  advance_aru();
  return true;
}

bool RecvBuffer::has(SeqNum seq) const {
  if (seq <= local_aru_) return true;
  return messages_.contains(seq);
}

const DataMsg* RecvBuffer::find(SeqNum seq) const {
  const auto it = messages_.find(seq);
  return it == messages_.end() ? nullptr : &it->second;
}

void RecvBuffer::advance_aru() {
  auto it = messages_.find(local_aru_ + 1);
  while (it != messages_.end() && it->first == local_aru_ + 1) {
    ++local_aru_;
    ++it;
  }
}

const DataMsg* RecvBuffer::next_deliverable(SeqNum safe_line) {
  const auto it = messages_.find(delivered_ + 1);
  if (it == messages_.end()) return nullptr;  // gap or nothing new
  const DataMsg& msg = it->second;
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
  discard_line_ = line;
  messages_.erase(messages_.begin(), messages_.upper_bound(line));
}

std::vector<SeqNum> RecvBuffer::missing_up_to(
    SeqNum bound, const std::vector<SeqNum>& already_requested) const {
  std::vector<SeqNum> missing;
  for (SeqNum s = local_aru_ + 1; s <= bound; ++s) {
    if (messages_.contains(s)) continue;
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
  size_t n = 0;
  for (const auto& [seq, msg] : messages_) {
    if (seq > delivered_) ++n;
  }
  return n;
}

}  // namespace accelring::protocol
