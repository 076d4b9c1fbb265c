// U-Ring-Paxos-style ordering (paper §V, [25]).
//
// The paper measures U-Ring Paxos on the same 8-node setup: >750 Mbps at
// 1GbE with 1350-byte messages (with batching) and a latency profile similar
// to the original Ring protocol's Safe delivery; close to 1.5 Gbps at 10GbE.
// This module reproduces that baseline on the simulated substrate.
//
// Design (simplified from Unicast Multi-Ring Paxos, single ring):
//  * processes form a fixed unicast ring; the first member is the
//    coordinator (Paxos leader),
//  * clients forward values to the coordinator, which batches them,
//    assigns consecutive batch ids (consensus instances), and sends each
//    batch to its ring successor,
//  * the batch propagates hop by hop around the ring — this is both the
//    dissemination (no IP-multicast, values travel in the ring itself) and
//    the vote collection: when the batch has traversed a majority of
//    processes, the majority-position process unicasts an ACK back to the
//    coordinator, which decides the instance,
//  * the decision (decided-up-to watermark) piggybacks on subsequent
//    batches (plus a periodic flush when idle); processes deliver batch
//    contents in batch order once decided,
//  * gaps are NAKed to the coordinator, which resends from history.
//
// Simplifications vs full (Multi-)Ring Paxos, documented in DESIGN.md:
// single ring, stable coordinator (no leader election / view change), no
// acceptor-log persistence. Like the sequencer baseline, it exists for the
// performance comparison, where these mechanisms are off the hot path.
#pragma once

#include <deque>
#include <map>

#include "protocol/engine.hpp"

namespace accelring::baselines {

using protocol::Host;
using protocol::Nanos;
using protocol::ProcessId;
using protocol::RingConfig;
using protocol::SocketId;

struct URingConfig {
  size_t batch_max_msgs = 24;
  size_t max_pending = 10'000;
};

struct URingStats {
  uint64_t submitted = 0;
  uint64_t forwarded = 0;     ///< values unicast to the coordinator
  uint64_t batches = 0;       ///< consensus instances started (coordinator)
  uint64_t decided = 0;       ///< instances decided (coordinator)
  uint64_t delivered = 0;     ///< application messages delivered
  uint64_t naks_sent = 0;
  uint64_t retransmitted = 0;
  uint64_t duplicates = 0;
  uint64_t submit_rejected = 0;
};

class URingProtocol final : public protocol::PacketHandler {
 public:
  URingProtocol(ProcessId self, RingConfig members, URingConfig cfg,
                Host& host);

  bool submit(std::vector<std::byte> payload);

  // --- protocol::PacketHandler ----------------------------------------------
  void on_packet(SocketId sock, std::span<const std::byte> packet) override;
  void on_timer(protocol::TimerKind kind) override;
  [[nodiscard]] SocketId preferred_socket() const override {
    return protocol::kSockData;
  }

  [[nodiscard]] const URingStats& stats() const { return stats_; }
  [[nodiscard]] bool is_coordinator() const {
    return self_ == members_.members.front();
  }

 private:
  struct Entry {
    ProcessId origin = 0;
    std::vector<std::byte> payload;
  };
  struct Batch {
    uint64_t id = 0;
    std::vector<Entry> entries;
  };

  void flush_pending(bool force);
  void send_value(uint64_t client_seq, const std::vector<std::byte>& body);
  void send_batch_to_successor(const Batch& batch, uint64_t decided_upto);
  void handle_batch(Batch batch, uint64_t decided_upto);
  void advance_decided(uint64_t decided_upto);
  void deliver_decided();
  [[nodiscard]] size_t my_ring_position() const;
  [[nodiscard]] std::vector<std::byte> encode_batch(
      const Batch& batch, uint64_t decided_upto) const;

  ProcessId self_;
  RingConfig members_;
  URingConfig cfg_;
  Host& host_;
  URingStats stats_;

  // Client side (at the coordinator this doubles as the batching queue;
  // forwarded values arrive here with their true origin attached).
  std::deque<Entry> pending_;
  uint64_t client_seq_ = 0;        ///< per-client value numbering
  uint64_t own_delivered_ = 0;     ///< own values seen delivered (cum. ack)
  std::map<uint64_t, std::vector<std::byte>> unacked_values_;
  bool value_timer_armed_ = false;

  // Coordinator-side per-client FIFO ingestion (dedupes retransmissions).
  struct ClientIngest {
    uint64_t expected = 1;
    std::map<uint64_t, std::vector<std::byte>> reorder;
  };
  std::map<ProcessId, ClientIngest> ingest_;

  // Coordinator side.
  uint64_t next_batch_ = 0;
  uint64_t decided_ = 0;        ///< contiguous decided watermark
  uint64_t published_ = 0;      ///< watermark last circulated to the ring
  uint64_t flush_ticks_ = 0;
  uint64_t stall_ticks_ = 0;
  uint64_t last_seen_decided_ = 0;
  std::map<uint64_t, bool> acks_;

  // Every process.
  std::map<uint64_t, Batch> store_;   ///< batches seen, until delivered+stable
  uint64_t high_batch_ = 0;
  uint64_t decided_upto_ = 0;   ///< delivery watermark at this process
  uint64_t delivered_next_ = 1;
  bool nak_armed_ = false;
};

}  // namespace accelring::baselines
