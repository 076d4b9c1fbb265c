// Gray-failure detection from token-carried health telemetry.
//
// A gray failure is a member that is degraded but not dead: an overloaded or
// throttled CPU, a half-broken NIC that drops a large fraction of received
// frames, a flapping link. The PR-3 failure detector never fires — the
// member keeps forwarding the token — yet the whole ring runs at the
// degraded member's speed (the protocol's throughput is bounded by its
// slowest member).
//
// Every member stamps a TokenHealth entry as the token passes (hold time,
// datagrams sent during the hold, retransmission requests added, send
// backlog), so each rotation delivers a ring-wide health vector. The
// detector scores members from that vector with two *relative* signals:
//
//  * work-normalized hold time (hold_us / datagrams sent) against the ring
//    MEDIAN — a slow CPU makes every unit of work expensive, while a busy
//    but healthy member has a long hold with proportionally more work.
//    Comparing to the median makes ring-wide conditions (uniform loss,
//    congestion, a fabric latency shift) invisible: if everyone slows down,
//    nobody stands out.
//  * sustained retransmit pressure: the fraction of recent rotations in
//    which the member requested retransmissions, compared against the ring
//    median share. A lossy receive path shows up as the one member forever
//    asking for repeats while nobody else does; iid loss makes everyone
//    ask, which again cancels out.
//
// Both signals pass through hysteresis (EWMA smoothing plus a
// consecutive-rotation streak requirement) so a single congested rotation
// never convicts anyone. The verdict only *identifies* the degraded member;
// the eviction itself is a deliberate membership change owned by
// membership::QuarantineManager.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "protocol/types.hpp"
#include "protocol/wire.hpp"

namespace accelring::protocol {

class GrayFailureDetector {
 public:
  GrayFailureDetector(ProcessId self, const ProtocolConfig::GrayConfig& cfg)
      : self_(self), cfg_(cfg) {}

  /// Ring changed: all history is about the old ring — drop it.
  void reset();

  /// Feed the health vector from one accepted token.
  void observe(const std::vector<TokenHealth>& health);

  /// The member (never self) whose suspect streak crossed the hysteresis
  /// threshold, if any. Ties break to the lowest pid so every observer of
  /// the same history names the same victim.
  [[nodiscard]] std::optional<ProcessId> verdict() const;

  // --- introspection (tests) ----------------------------------------------
  [[nodiscard]] uint32_t streak(ProcessId pid) const;
  [[nodiscard]] uint64_t observations() const { return observations_; }

 private:
  struct MemberScore {
    double unit_ewma = 0.0;  ///< smoothed µs per datagram of token-hold work
    bool initialized = false;
    uint32_t streak = 0;        ///< consecutive suspect rotations
    uint32_t rtr_bits = 0;      ///< rolling window: bit = rotation had rtr
    uint32_t rtr_seen = 0;      ///< rotations recorded into rtr_bits (<= 32)
  };

  [[nodiscard]] double rtr_share(const MemberScore& m) const;

  ProcessId self_;
  const ProtocolConfig::GrayConfig& cfg_;
  std::map<ProcessId, MemberScore> scores_;
  uint64_t observations_ = 0;
};

}  // namespace accelring::protocol
