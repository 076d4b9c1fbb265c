// Fixed-sequencer total ordering (the JGroups SEQUENCER design, paper §V).
//
// The paper benchmarks JGroups' sequencer-based total ordering on the same
// 8-node setup (≈650 Mbps at 1GbE with 1350-byte messages, ≈3 Gbps at
// 10GbE); this module reproduces that baseline on the same simulated
// substrate so bench/related_protocols can regenerate the comparison.
//
// Design (classic coordinator forwarding):
//  * a sender UNICASTS each message to the sequencer (the first member),
//  * the sequencer assigns the global sequence number and MULTICASTS the
//    message to everyone,
//  * receivers deliver in sequence order, detect gaps, and NAK the
//    sequencer, which retransmits from its history,
//  * receivers periodically ACK their aru so the sequencer can garbage-
//    collect history; senders are flow-controlled by a window of
//    unordered own messages.
//
// Total order holds trivially (one process assigns all sequence numbers).
// The costs relative to the ring are also visible: every message crosses
// the sender's link twice (forward + multicast) unless the sender *is* the
// sequencer, and the sequencer's CPU handles every message in the system.
// Membership/fault-tolerance is out of scope for this baseline (JGroups
// handles it with view changes); it exists for performance comparison.
#pragma once

#include <deque>
#include <map>

#include "protocol/engine.hpp"

namespace accelring::baselines {

using protocol::Host;
using protocol::Nanos;
using protocol::ProcessId;
using protocol::RingConfig;
using protocol::SeqNum;
using protocol::SocketId;

struct SequencerConfig {
  uint32_t sender_window = 400;  ///< max own messages awaiting ordering
  size_t max_pending = 10'000;   ///< submit() backpressure bound
};

struct SequencerStats {
  uint64_t submitted = 0;
  uint64_t forwarded = 0;    ///< messages unicast to the sequencer
  uint64_t ordered = 0;      ///< sequence numbers assigned (sequencer only)
  uint64_t delivered = 0;
  uint64_t naks_sent = 0;
  uint64_t retransmitted = 0;
  uint64_t duplicates = 0;
  uint64_t submit_rejected = 0;
};

class SequencerProtocol final : public protocol::PacketHandler {
 public:
  /// `members.front()` is the sequencer.
  SequencerProtocol(ProcessId self, RingConfig members, SequencerConfig cfg,
                    Host& host);

  /// Queue an application message for total-order multicast.
  bool submit(std::vector<std::byte> payload);

  // --- protocol::PacketHandler ----------------------------------------------
  void on_packet(SocketId sock, std::span<const std::byte> packet) override;
  void on_timer(protocol::TimerKind kind) override;
  /// The sequencer design has no token; always drain data first.
  [[nodiscard]] SocketId preferred_socket() const override {
    return protocol::kSockData;
  }

  [[nodiscard]] const SequencerStats& stats() const { return stats_; }
  [[nodiscard]] SeqNum delivered_up_to() const { return delivered_; }
  [[nodiscard]] bool is_sequencer() const {
    return self_ == members_.members.front();
  }

 private:
  struct Stored {
    ProcessId sender = 0;
    uint64_t sender_seq = 0;
    std::vector<std::byte> payload;
  };

  void try_send_pending();
  void send_forward(uint64_t sender_seq, const std::vector<std::byte>& body);
  /// Sequencer path: ingest a forward in per-sender FIFO order, then assign
  /// global sequence numbers to everything newly in order.
  void ingest_forward(ProcessId sender, uint64_t sender_seq,
                      std::vector<std::byte> payload);
  void order_message(ProcessId sender, uint64_t sender_seq,
                     std::vector<std::byte> payload);
  void handle_ordered(SeqNum seq, ProcessId sender, uint64_t sender_seq,
                      std::vector<std::byte> payload);
  void deliver_ready();
  void send_naks();

  ProcessId self_;
  RingConfig members_;
  SequencerConfig cfg_;
  Host& host_;
  SequencerStats stats_;

  // Sender side.
  std::deque<std::vector<std::byte>> pending_;
  uint64_t sender_seq_ = 0;
  uint32_t outstanding_ = 0;
  /// Forwards not yet seen ordered; retransmitted until acknowledged by
  /// observing our own ordered messages.
  std::map<uint64_t, std::vector<std::byte>> unacked_;
  bool forward_timer_armed_ = false;

  // Sequencer side: per-sender FIFO ingestion.
  struct SenderIngest {
    uint64_t expected = 1;  ///< next sender_seq to order
    std::map<uint64_t, std::vector<std::byte>> reorder;
  };
  SeqNum next_seq_ = 0;
  std::map<SeqNum, Stored> history_;
  std::map<ProcessId, SenderIngest> ingest_;
  struct MemberAck {
    SeqNum aru = 0;
    SeqNum previous = -1;  ///< aru at the preceding ack (stall detection)
  };
  std::map<ProcessId, MemberAck> member_aru_;

  // Receiver side.
  std::map<SeqNum, Stored> reorder_;
  SeqNum aru_ = 0;        ///< highest contiguous sequence received
  SeqNum high_seq_ = 0;
  SeqNum delivered_ = 0;
  bool nak_timer_armed_ = false;
};

}  // namespace accelring::baselines
