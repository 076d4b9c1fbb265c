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

/// Every protocol timer base value, in one place. These used to be loose
/// fields scattered through the config; naming the group gives the adaptive
/// failure detector (timeout_estimator.hpp) a single anchor: when
/// ProtocolConfig::adaptive_timeouts is on, the estimator derives the live
/// token-loss and consensus timeouts from observed token rotation time,
/// clamped between floors and ceilings expressed in these base values.
struct Timeouts {
  /// Token retransmission timeout: resend the token if no evidence of
  /// progress after passing it.
  Nanos token_retransmit = util::msec(10);
  /// Token loss timeout: trigger the membership algorithm.
  Nanos token_loss = util::msec(100);
  /// Membership: how long to wait collecting join messages.
  Nanos join = util::msec(20);
  /// Membership: restart gather if consensus/commit stalls this long.
  Nanos consensus = util::msec(200);
  /// Hold the token this long before passing it when the ring is fully idle
  /// (nothing sent for a round, no outstanding retransmissions, aru == seq).
  /// Bounds CPU (and simulated event) load of an idle ring.
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
  /// ahead of the slowest receiver (receive-buffer bound).
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
  bool enable_packing = false;
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

  /// Protocol timer base values (see Timeouts).
  Timeouts timeouts;
  /// Adaptive failure detection: estimate token rotation time with a
  /// Jacobson-style EWMA + variance filter and derive the token-loss and
  /// consensus timeouts from it (floor/ceiling anchored in `timeouts`),
  /// instead of using the static values directly. Additionally, any
  /// authenticated current-ring data traffic defers the token-loss timer:
  /// a ring making (slow, lossy) progress is alive, so membership fires
  /// only on genuine silence. Off by default so static-timeout behaviour
  /// stays reproducible; the fault campaigns run with it on.
  bool adaptive_timeouts = false;

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
