// Receive buffer: sequence-ordered message store with delivery tracking.
//
// One instance per ring incarnation. Holds every data message received (or
// self-inserted by the sender) until it has been delivered and become stable
// (Safe-delivered everywhere, §III-A-4), tracks the local
// all-received-up-to value, the delivery cursor, and produces retransmission
// request lists for the token's rtr field.
#pragma once

#include <map>
#include <vector>

#include "protocol/wire.hpp"

namespace accelring::protocol {

class RecvBuffer {
 public:
  /// Insert a received or self-originated message, moving it in. Duplicates
  /// and messages at or below the discard line are ignored (and left
  /// unmoved). Returns true if inserted.
  bool insert(DataMsg&& msg);

  [[nodiscard]] bool has(SeqNum seq) const;
  [[nodiscard]] const DataMsg* find(SeqNum seq) const;

  /// Local aru: highest seq such that every message <= it has been received.
  [[nodiscard]] SeqNum local_aru() const { return local_aru_; }

  /// Highest sequence number seen in any received message.
  [[nodiscard]] SeqNum high_seq() const { return high_seq_; }

  /// Sequence number of the last message handed to the application.
  [[nodiscard]] SeqNum delivered_up_to() const { return delivered_; }

  /// Pop the next deliverable message, honouring Safe-delivery blocking:
  /// messages are delivered strictly in sequence order; a Safe message with
  /// seq > `safe_line` blocks itself and everything after it (§III-B).
  /// Returns nullptr when nothing further can be delivered.
  [[nodiscard]] const DataMsg* next_deliverable(SeqNum safe_line);
  /// Mark the message returned by next_deliverable as delivered.
  void mark_delivered();

  /// Discard messages with seq <= line; they are stable and will never be
  /// requested again (§III-A-4). Never discards undelivered messages.
  void discard_up_to(SeqNum line);

  /// All sequence numbers in (local_aru, bound] that are missing, excluding
  /// those already in `already_requested` — the token rtr update (§III-A-2).
  [[nodiscard]] std::vector<SeqNum> missing_up_to(
      SeqNum bound, const std::vector<SeqNum>& already_requested) const;

  [[nodiscard]] size_t size() const { return messages_.size(); }

  /// Number of messages not yet delivered (for test introspection).
  [[nodiscard]] size_t undelivered() const;

 private:
  void advance_aru();

  std::map<SeqNum, DataMsg> messages_;
  SeqNum local_aru_ = 0;
  SeqNum high_seq_ = 0;
  SeqNum delivered_ = 0;
  SeqNum discard_line_ = 0;
};

}  // namespace accelring::protocol
