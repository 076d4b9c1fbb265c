// Reference model for protocol::RecvBuffer: the simple buffer the slot ring
// replaced. Every message is a node of a std::map keyed by seq, so each
// operation searches the tree and each message costs an allocation. Slow,
// but its behaviour is easy to read; recv_buffer_test drives both buffers
// through the same random operations and compares every accessor.
#pragma once

#include <algorithm>
#include <map>
#include <vector>

#include "protocol/wire.hpp"

namespace accelring::protocol {

class ReferenceRecvBuffer {
 public:
  bool insert(DataMsg&& msg) {
    if (msg.seq <= discard_line_) return false;  // already stable everywhere
    if (msg.seq <= local_aru_) return false;     // duplicate below aru
    const auto [it, inserted] = messages_.try_emplace(msg.seq, std::move(msg));
    if (!inserted) return false;  // duplicate
    high_seq_ = std::max(high_seq_, it->first);
    advance_aru();
    return true;
  }

  [[nodiscard]] bool has(SeqNum seq) const {
    if (seq <= local_aru_) return true;
    return messages_.contains(seq);
  }

  [[nodiscard]] const DataMsg* find(SeqNum seq) const {
    const auto it = messages_.find(seq);
    return it == messages_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] SeqNum local_aru() const { return local_aru_; }
  [[nodiscard]] SeqNum high_seq() const { return high_seq_; }
  [[nodiscard]] SeqNum delivered_up_to() const { return delivered_; }

  [[nodiscard]] const DataMsg* next_deliverable(SeqNum safe_line) {
    const auto it = messages_.find(delivered_ + 1);
    if (it == messages_.end()) return nullptr;  // gap or nothing new
    const DataMsg& msg = it->second;
    if (requires_safe(msg.service) && msg.seq > safe_line) return nullptr;
    return &msg;
  }

  void mark_delivered() { ++delivered_; }

  void discard_up_to(SeqNum line) {
    line = std::min(line, delivered_);
    if (line <= discard_line_) return;
    discard_line_ = line;
    messages_.erase(messages_.begin(), messages_.upper_bound(line));
  }

  [[nodiscard]] std::vector<SeqNum> missing_up_to(
      SeqNum bound, const std::vector<SeqNum>& already_requested) const {
    std::vector<SeqNum> missing;
    for (SeqNum s = local_aru_ + 1; s <= bound; ++s) {
      if (messages_.contains(s)) continue;
      if (std::find(already_requested.begin(), already_requested.end(), s) ==
          already_requested.end()) {
        missing.push_back(s);
      }
    }
    return missing;
  }

  [[nodiscard]] size_t size() const { return messages_.size(); }

  [[nodiscard]] size_t undelivered() const {
    size_t n = 0;
    for (const auto& [seq, msg] : messages_) {
      if (seq > delivered_) ++n;
    }
    return n;
  }

 private:
  void advance_aru() {
    auto it = messages_.find(local_aru_ + 1);
    while (it != messages_.end() && it->first == local_aru_ + 1) {
      ++local_aru_;
      ++it;
    }
  }

  std::map<SeqNum, DataMsg> messages_;
  SeqNum local_aru_ = 0;
  SeqNum high_seq_ = 0;
  SeqNum delivered_ = 0;
  SeqNum discard_line_ = 0;
};

}  // namespace accelring::protocol
