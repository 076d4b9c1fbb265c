// Receive buffer: sequence-ordered message store with delivery tracking.
//
// One instance per ring incarnation. Holds every data message received (or
// self-inserted by the sender) until it has been delivered and become stable
// (Safe-delivered everywhere, §III-A-4), tracks the local
// all-received-up-to value, the delivery cursor, and produces retransmission
// request lists for the token's rtr field.
//
// Layout: a seq-indexed slot ring. A power-of-two vector of {present,
// message} slots covers the seqs (discard_line, discard_line + capacity];
// seq s lives in slot s & (capacity - 1), so every operation indexes its
// slot directly, with no search and no allocation per message. The slots
// are allocated on the first insert (kInitialSlots of them). An insert
// beyond the covered span doubles the vector and re-homes the present
// slots, up to kMaxSpan seqs past the discard line; a seq beyond that is
// rejected, so no single datagram makes the buffer allocate without limit.
// Flow control keeps every new seq within ProtocolConfig::max_seq_gap of
// the global aru, far below the cap. Discarding a slot releases its
// payload, so a ring's buffer holds memory for about a rotation or two of
// messages, not for every message it ever held.
#pragma once

#include <cstddef>
#include <vector>

#include "protocol/wire.hpp"

namespace accelring::protocol {

class RecvBuffer {
 public:
  /// Slots allocated on the first insert.
  static constexpr size_t kInitialSlots = 64;
  /// Largest seq - discard line an insert accepts; a power of two, so the
  /// slot vector never grows past it.
  static constexpr SeqNum kMaxSpan = SeqNum{1} << 16;

  RecvBuffer() = default;
  /// A moved-from buffer is empty, as a new one.
  RecvBuffer(RecvBuffer&& other) noexcept;
  RecvBuffer& operator=(RecvBuffer&& other) noexcept;

  /// Insert a received or self-originated message, moving it in. Duplicates,
  /// messages at or below the discard line or the local aru, and messages
  /// more than kMaxSpan above the discard line are ignored (and left
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

  [[nodiscard]] size_t size() const { return count_; }

  /// Number of messages not yet delivered (for test introspection).
  [[nodiscard]] size_t undelivered() const;

  /// Slots allocated (for test introspection).
  [[nodiscard]] size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    bool present = false;
    DataMsg msg;
  };

  [[nodiscard]] size_t index(SeqNum seq) const {
    return static_cast<size_t>(seq) & (slots_.size() - 1);
  }
  /// The slot holding `seq`, or nullptr if `seq` is not held.
  [[nodiscard]] const Slot* slot_of(SeqNum seq) const;
  /// Grow the slot vector until it covers `span` seqs past the discard line.
  void grow(SeqNum span);
  void advance_aru();

  std::vector<Slot> slots_;
  size_t count_ = 0;  ///< present slots
  SeqNum local_aru_ = 0;
  SeqNum high_seq_ = 0;
  SeqNum delivered_ = 0;
  SeqNum discard_line_ = 0;
};

}  // namespace accelring::protocol
