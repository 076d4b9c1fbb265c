// CRC-32 (IEEE 802.3 polynomial, reflected) and the tail-CRC framing every
// codec shares.
//
// The system model assumes messages are not corrupted (§II), but the wire
// codecs still carry a checksum so the real UDP transport can discard
// truncated or mangled datagrams instead of feeding them to the protocol.
// The storage layer frames its checkpoint and WAL header the same way.
//
// Algorithm: slicing-by-8. Eight 256-entry tables (8 KB, built at compile
// time) let one step fold eight input bytes into the CRC: the 8-byte block is
// loaded with memcpy, XORed with the running CRC in its low four bytes, and
// each byte indexes the table for its distance from the end of the block.
// The last 0-7 bytes go through the classic bytewise table (the first of the
// eight). The output is bit-identical to the bytewise loop for every input;
// the only platform assumption is a little-endian host, checked at compile
// time, since the CRC is XORed into the low bytes of a native 64-bit load.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "util/bytes.hpp"

namespace accelring::util {

/// CRC-32 of `data` (initial value 0xFFFFFFFF, final xor, reflected poly).
[[nodiscard]] uint32_t crc32(std::span<const std::byte> data);

/// Append the CRC-32 of everything written so far (u32, little-endian).
void seal(Writer& w);

/// Verify and strip a trailing CRC-32 written by seal(). Returns the body,
/// or nullopt when the packet is shorter than one body byte plus the CRC or
/// the CRC does not match.
[[nodiscard]] std::optional<std::span<const std::byte>> unseal(
    std::span<const std::byte> packet);

}  // namespace accelring::util
