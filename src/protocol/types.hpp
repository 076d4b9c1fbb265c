// Core identifier types and configuration for the ring ordering protocols.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace accelring::protocol {

using util::Nanos;

/// Protocol participant identifier (a daemon, not a client).
using ProcessId = uint16_t;
inline constexpr ProcessId kNoProcess = std::numeric_limits<ProcessId>::max();

/// Position in the total order. 64-bit so wraparound never occurs in
/// practice (Totem used 32-bit sequence numbers with wrap handling).
using SeqNum = int64_t;

/// Identifies one ring configuration (membership epoch).
using RingId = uint64_t;

/// Delivery service requested per message (§II). FIFO and Causal are
/// delivered with Agreed latency and are subsumed by it (paper §II), but are
/// kept distinct on the wire so applications can express intent.
enum class Service : uint8_t {
  kReliable = 0,
  kFifo = 1,
  kCausal = 2,
  kAgreed = 3,
  kSafe = 4,
};

[[nodiscard]] constexpr bool requires_safe(Service s) {
  return s == Service::kSafe;
}

[[nodiscard]] constexpr const char* service_name(Service s) {
  switch (s) {
    case Service::kReliable:
      return "reliable";
    case Service::kFifo:
      return "fifo";
    case Service::kCausal:
      return "causal";
    case Service::kAgreed:
      return "agreed";
    case Service::kSafe:
      return "safe";
  }
  return "?";
}

/// Which ordering protocol to run (§III vs the Totem baseline of [2],[3]).
enum class Variant : uint8_t {
  kOriginal = 0,     ///< Totem single-ring: send everything, then the token
  kAccelerated = 1,  ///< pass the token before multicasting completes
};

/// Token-priority switching method (§III-C).
enum class PriorityMethod : uint8_t {
  /// Method 1: raise token priority on any predecessor data message from the
  /// next round. Fastest rotation; used for the prototypes in the paper.
  kAggressive = 0,
  /// Method 2: additionally require the message to have been sent *after*
  /// the token (post-token flag). Shipped in Spread 4.4; with an accelerated
  /// window of 0 this is identical to the original Ring protocol.
  kConservative = 1,
};

/// One ring configuration: an ordered list of members. The member at index 0
/// is the representative (it increments the round counter and originates the
/// first token).
struct RingConfig {
  RingId ring_id = 0;
  std::vector<ProcessId> members;

  [[nodiscard]] size_t size() const { return members.size(); }
  [[nodiscard]] int index_of(ProcessId pid) const {
    for (size_t i = 0; i < members.size(); ++i) {
      if (members[i] == pid) return static_cast<int>(i);
    }
    return -1;
  }
  [[nodiscard]] ProcessId successor_of(ProcessId pid) const {
    const int i = index_of(pid);
    return members[(static_cast<size_t>(i) + 1) % members.size()];
  }
  [[nodiscard]] ProcessId predecessor_of(ProcessId pid) const {
    const int i = index_of(pid);
    return members[(static_cast<size_t>(i) + members.size() - 1) %
                   members.size()];
  }
  [[nodiscard]] ProcessId representative() const { return members.front(); }
};

/// Every protocol timer base value, in one place. The failure detector
/// (timeout_estimator.hpp) derives the live token-loss timeout from observed
/// token rotation time, clamped between a floor and a ceiling expressed in
/// these base values; every other timer arms its base value as is.
struct Timeouts {
  /// Token retransmission timeout: resend the token if no evidence of
  /// progress after passing it.
  Nanos token_retransmit = util::msec(10);
  /// Token loss timeout: trigger the membership algorithm. Armed as is
  /// until the failure detector has sampled a few rotations, and the base
  /// of its ceiling (4x) after that.
  Nanos token_loss = util::msec(100);
  /// Membership: how long to wait collecting join messages.
  Nanos join = util::msec(20);
  /// Membership: restart gather if consensus/commit stalls this long.
  Nanos consensus = util::msec(200);
  /// Hold the token this long before passing it when the ring is fully idle
  /// (nothing sent for a round, no outstanding retransmissions, aru == seq)
  /// and this member has delivered everything. Bounds CPU (and simulated
  /// event) load of an idle ring. The engine holds it on kTimerTokenHold;
  /// a local submit or a hold cancel from a submitting member ends the hold
  /// early (Engine::submit).
  Nanos idle_token_hold = util::usec(200);
};

/// Flow control and protocol tuning (§III-A). Defaults follow Spread's
/// data-center defaults, scaled for an 8-member ring.
struct ProtocolConfig {
  Variant variant = Variant::kAccelerated;
  PriorityMethod priority = PriorityMethod::kAggressive;

  /// Max new messages one participant may initiate per token round.
  uint32_t personal_window = 20;
  /// Max messages (new + retransmitted) all participants may send per round.
  uint32_t global_window = 160;
  /// Max messages a participant may still send after passing the token.
  /// Ignored (treated as 0) when variant == kOriginal.
  uint32_t accelerated_window = 15;
  /// Bound on token.seq - Global_aru: limits how far sequencing may run
  /// ahead of the slowest receiver (receive-buffer bound). Keep it well
  /// below RecvBuffer::kMaxSpan, the furthest past its discard line a
  /// receive buffer accepts a message.
  SeqNum max_seq_gap = 4096;
  /// Bound on the application send queue; submit() fails beyond this.
  size_t max_pending = 10'000;
  /// Adapt the personal and accelerated windows at runtime instead of
  /// relying on hand tuning (the paper notes out-of-the-box Spread 4.3
  /// reached only 50% utilization because "careful tuning of the flow
  /// control parameters ... many users are unlikely to attempt"). Every
  /// `auto_tune_interval` token rounds: halve the window when loss was
  /// observed (retransmissions answered or requested), grow it additively
  /// while the send queue is backlogged and the ring is clean.
  bool auto_tune = false;
  uint32_t auto_tune_interval = 32;   ///< rounds between adjustments
  uint32_t min_personal_window = 2;
  uint32_t max_personal_window = 120;

  /// Pack small application messages into one protocol packet (Spread's
  /// built-in packing, paper §IV-A-3). Messages are packed greedily per
  /// round while they share a service level and fit under packing_budget.
  /// On by default; harness::bench_protocol() turns it off so the paper's
  /// figures keep one message per packet. Windows and fcc count packets, so
  /// a packed window admits up to packing_budget / (payload + 4) messages.
  bool enable_packing = true;
  /// Maximum packed payload size; the default keeps the whole protocol
  /// packet within a standard 1500-byte MTU, like Spread.
  size_t packing_budget = 1350;
  /// ABLATION ONLY: request retransmissions up to the *current* token's seq
  /// instead of the previous round's (§III-A-2). Under acceleration this
  /// floods the ring with spurious requests for messages still in flight;
  /// bench/ablation_rtr_guard quantifies the damage.
  bool naive_rtr_guard = false;

  /// Gray-failure detection: score ring members from the token's health
  /// vector and quarantine a persistently degraded one (gray_detector.hpp
  /// holds the detector's thresholds, membership/quarantine.hpp the
  /// quarantine and probation holds). All signals are *relative* to the ring
  /// median so a ring-wide condition (uniform loss, congestion) never looks
  /// like one bad member.
  struct GrayConfig {
    /// Master switch. Off by default: detection costs nothing when disabled
    /// and the baseline benches stay bit-identical.
    bool enabled = false;
  };
  GrayConfig gray;

  /// Protocol timer base values (see Timeouts). The token-loss timeout
  /// follows the measured token rotation (timeout_estimator.hpp), and any
  /// authenticated current-ring data traffic defers it: a ring making
  /// (slow, lossy) progress is alive, so membership fires only on silence.
  Timeouts timeouts;

  /// Effective accelerated window given the variant.
  [[nodiscard]] uint32_t effective_accel_window() const {
    return variant == Variant::kOriginal ? 0u : accelerated_window;
  }
  /// Effective priority method given the variant (original == conservative).
  [[nodiscard]] PriorityMethod effective_priority() const {
    return variant == Variant::kOriginal ? PriorityMethod::kConservative
                                         : priority;
  }
};

/// A message handed to the application, or a membership notification.
struct Delivery {
  ProcessId sender = kNoProcess;
  SeqNum seq = 0;
  /// Index within a packed message (packed messages share one seq); 0 when
  /// the message travelled alone. (seq, part) orders a ring's deliveries.
  uint32_t part = 0;
  Service service = Service::kAgreed;
  uint64_t round = 0;
  RingId ring_id = 0;
  std::vector<std::byte> payload;
};

/// EVS configuration-change notification (§II). A transitional configuration
/// contains the members of the next regular configuration that came directly
/// from the process's previous regular configuration; messages that could not
/// be delivered in the old regular configuration are delivered in it.
struct ConfigurationChange {
  RingConfig config;
  bool transitional = false;
};

}  // namespace accelring::protocol
