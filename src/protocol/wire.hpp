// Wire formats for all protocol messages.
//
// Every datagram starts with a one-byte packet type followed by a
// type-specific body and ends with a CRC-32 over everything before it. The
// codecs are pure functions over byte buffers: encode_* builds a datagram,
// decode_* parses one and reports failure via std::optional. Decoding copies
// the payload so the protocol can hold messages beyond the life of the
// receive buffer.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "protocol/types.hpp"
#include "util/bytes.hpp"

namespace accelring::protocol {

enum class PacketType : uint8_t {
  kData = 1,
  kToken = 2,
  kJoin = 3,
  kCommitToken = 4,
  kHoldCancel = 5,
};

/// Peek the packet type without full decoding (for socket demux and tests).
[[nodiscard]] std::optional<PacketType> peek_type(
    std::span<const std::byte> packet);

// ---------------------------------------------------------------------------
// Data messages (§III-B)
// ---------------------------------------------------------------------------

struct DataMsg {
  RingId ring_id = 0;
  SeqNum seq = 0;        ///< position in the total order
  ProcessId pid = 0;     ///< initiating participant
  uint64_t round = 0;    ///< token round in which the message was initiated
  Service service = Service::kAgreed;
  bool post_token = false;  ///< sent during the post-token multicast phase
  bool recovered = false;   ///< encapsulates an old-ring message (recovery)
  /// Payload holds several packed application messages (each framed as
  /// [u32 length][bytes]); they are unpacked and delivered individually.
  /// All packed messages share this message's service level.
  bool packed = false;
  /// Extra header bytes emulating implementation overhead (e.g. Spread's
  /// group/sender names); transmitted as zero padding.
  uint16_t header_pad = 0;
  std::vector<std::byte> payload;

  /// Serialized datagram size for a given payload length and padding.
  [[nodiscard]] static size_t encoded_size(size_t payload_len,
                                           uint16_t header_pad);
};

[[nodiscard]] std::vector<std::byte> encode(const DataMsg& msg);
/// Encode `msg` into `out`, reusing its capacity, with the post-token flag
/// `post_token` in place of msg.post_token.
void encode(const DataMsg& msg, bool post_token, std::vector<std::byte>& out);
[[nodiscard]] std::optional<DataMsg> decode_data(
    std::span<const std::byte> packet);

// ---------------------------------------------------------------------------
// Token messages (§III-A)
// ---------------------------------------------------------------------------

/// Per-member health sample piggybacked on the token (gray-failure
/// telemetry). Each member overwrites its own entry as the token passes, so
/// after one rotation every member sees a ring-wide health vector at most one
/// rotation old — no extra datagrams, ~14 bytes per member on the token.
struct TokenHealth {
  ProcessId pid = 0;
  uint32_t hold_us = 0;   ///< token hold time last visit (µs)
  uint32_t work = 0;      ///< datagrams sent during that hold (normalizer)
  uint16_t rtr_count = 0; ///< retransmission requests the member added
  uint16_t backlog = 0;   ///< flow-control backlog (pending new messages)
};

struct TokenMsg {
  RingId ring_id = 0;
  uint64_t token_id = 0;  ///< hop counter; detects duplicate/retransmitted tokens
  uint64_t round = 0;     ///< rotation counter, incremented by the representative
  SeqNum seq = 0;         ///< last sequence number claimed (§III-A field 1)
  SeqNum aru = 0;         ///< all-received-up-to (§III-A field 2)
  ProcessId aru_id = kNoProcess;  ///< who last lowered the aru
  uint32_t fcc = 0;       ///< messages multicast during the last round (field 3)
  std::vector<SeqNum> rtr;  ///< retransmission requests (field 4)
  std::vector<TokenHealth> health;  ///< ring health vector (one per member)
};

[[nodiscard]] std::vector<std::byte> encode(const TokenMsg& msg);
/// Encode `msg` into `out`, reusing its capacity.
void encode(const TokenMsg& msg, std::vector<std::byte>& out);
[[nodiscard]] std::optional<TokenMsg> decode_token(
    std::span<const std::byte> packet);

// ---------------------------------------------------------------------------
// Token-hold cancel
// ---------------------------------------------------------------------------

/// Multicast by a member whose submit found its queue empty while the ring
/// idles: a member holding an idle token passes it at once, and one that is
/// not holding skips its next hold (Totem SRP's token-hold cancel).
struct HoldCancelMsg {
  RingId ring_id = 0;
};

[[nodiscard]] std::vector<std::byte> encode(const HoldCancelMsg& msg);
[[nodiscard]] std::optional<HoldCancelMsg> decode_hold_cancel(
    std::span<const std::byte> packet);

// ---------------------------------------------------------------------------
// Membership messages (Totem/Spread membership, §II)
// ---------------------------------------------------------------------------

struct JoinMsg {
  ProcessId sender = 0;
  RingId old_ring_id = 0;
  /// Processes the sender currently believes should form the next ring.
  std::vector<ProcessId> proc_set;
  /// Processes the sender has explicitly failed (timeouts during gather).
  std::vector<ProcessId> fail_set;
  /// Processes the sender holds in gray-failure quarantine (with the hold in
  /// remaining probe rotations). Peers adopt the stricter verdict so a
  /// quarantined member cannot rejoin through a peer that missed the
  /// eviction.
  std::vector<std::pair<ProcessId, uint32_t>> quarantine_set;
};

[[nodiscard]] std::vector<std::byte> encode(const JoinMsg& msg);
[[nodiscard]] std::optional<JoinMsg> decode_join(
    std::span<const std::byte> packet);

/// Per-member state carried by the commit token so every member learns what
/// must be recovered from each old ring.
struct CommitEntry {
  ProcessId pid = 0;
  RingId old_ring_id = 0;
  SeqNum old_aru = 0;       ///< member's all-received-up-to in its old ring
  SeqNum old_high_seq = 0;  ///< highest sequence number member saw in old ring
  /// Member's Safe-delivery line in the old ring (min of the aru values on
  /// the last two tokens it sent). Any message at or below *any* member's
  /// line was token-confirmed received by every old-ring member, so during
  /// recovery the max over present members bounds what may still be
  /// delivered under the old configuration's rules — a bound every member
  /// computes identically from this table.
  SeqNum old_safe_line = 0;
  bool filled = false;      ///< entry populated on the first rotation
};

struct CommitTokenMsg {
  RingId new_ring_id = 0;
  uint64_t token_id = 0;
  /// Ring order of the proposed membership (sorted by pid; index 0 is the
  /// representative).
  std::vector<CommitEntry> members;
  /// 0 while the first rotation fills entries; 1 once complete info loops.
  uint8_t rotation = 0;
};

[[nodiscard]] std::vector<std::byte> encode(const CommitTokenMsg& msg);
[[nodiscard]] std::optional<CommitTokenMsg> decode_commit(
    std::span<const std::byte> packet);

}  // namespace accelring::protocol
