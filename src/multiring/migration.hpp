// Live shard migration: totally ordered handoff markers.
//
// Moving a hash range from ring S to ring D must not create a gap (a key's
// message lost between deliverers) or a dup (delivered by both), and every
// node must switch deliverers at the *same point* of its merged stream. The
// protocol gets both for free from total order itself: the handoff is driven
// by three marker messages that are ordered like any application message —
//
//   freeze(S, plan)  on each source ring    — stop *new* submissions for the
//                                             moving ranges (they are held);
//                                             carries the full plan, so every
//                                             node learns the moves from its
//                                             own merged stream
//   drain(S, v)      on each source ring    — the source's ownership of the
//                                             moving ranges is closed: every
//                                             message submitted to S for a
//                                             moving key is ordered before
//                                             this marker
//   activate(D, v)   on each destination    — destination ownership opens:
//                                             held submissions flush to D and
//                                             are ordered after this marker
//
// The controller (RingSet) submits drain only after every live node merged
// the freeze and the source ring's submitted-vs-merged counters agree, and
// submits activate only after every live node merged *all* drains, so
// "drain before activate" holds in every node's merged stream. (The
// controller's own stream would not do: the merged order is a pure function
// of the per-ring streams, but a node that spent a partition in another view
// was fed different streams and merges a different interleaving.) Each
// node's merger then switches deliverers at the marker, with no
// coordination beyond the ordered markers themselves.
//
// This file defines the marker wire format (and the plan payload embedded in
// freeze markers); shard_router.hpp holds the per-node state machine and
// ring_set.cpp the controller.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "multiring/shard_map.hpp"

namespace accelring::multiring {

enum class MarkerKind : uint8_t {
  kFreeze = 1,
  kDrain = 2,
  kActivate = 3,
};

/// One handoff marker as it appears in an ordered stream. `ring` is the ring
/// the marker was submitted to: a source ring for freeze/drain, a
/// destination for activate. Only freeze markers carry the move list.
struct MigrationMarker {
  MarkerKind kind = MarkerKind::kFreeze;
  uint64_t version = 0;  ///< MigrationPlan::to_version
  int ring = 0;
  std::vector<MigrationMove> moves;  ///< freeze only; empty otherwise
};

/// Encode a marker payload. Layout (little-endian):
///   u8  tag (0x4D)         — outside every frame-type byte of the layers
///   u32 magic ("MRMG")       sharing ordered streams, like skip messages
///   u8  kind
///   u64 version
///   u8  ring
///   [freeze only] u16 n_moves, then per move: u64 lo, u64 hi, u8 src, u8 dst
[[nodiscard]] std::vector<std::byte> make_marker(const MigrationMarker& m);

/// Decode if `payload` is a handoff marker, nullopt otherwise. Exact-size
/// match like decode_skip: trailing bytes reject the payload.
[[nodiscard]] std::optional<MigrationMarker> decode_marker(
    std::span<const std::byte> payload);

}  // namespace accelring::multiring
