// CRC-32 (IEEE 802.3 polynomial, reflected) and the tail-CRC framing every
// codec shares.
//
// The system model assumes messages are not corrupted (§II), but the wire
// codecs still carry a checksum so the real UDP transport can discard
// truncated or mangled datagrams instead of feeding them to the protocol.
// The storage layer frames its checkpoint and WAL header the same way.
//
// Algorithm: carry-less multiply folding for the bulk, slicing-by-8 for the
// rest. On an x86-64 CPU with PCLMULQDQ and SSE4.1 (checked once, at run
// time), an input of 64 bytes or more has its largest multiple of 16 bytes
// folded 64 bytes per step in four 128-bit lanes, then the lanes into one,
// then 16 bytes per step, and Barrett-reduced to the 32-bit CRC (Gopal et
// al., Intel 2009). The running CRC then continues through the table loop
// over the last 0-15 bytes. Shorter inputs, other CPUs and other
// architectures use the table loop alone.
//
// The table loop is slicing-by-8. Eight 256-entry tables (8 KB, built at
// compile time) let one step fold eight input bytes into the CRC: the 8-byte
// block is loaded with memcpy, XORed with the running CRC in its low four
// bytes, and each byte indexes the table for its distance from the end of
// the block. The last 0-7 bytes go through the classic bytewise table (the
// first of the eight). Both paths are bit-identical to the bytewise loop for
// every input; the only platform assumption is a little-endian host, checked
// at compile time, since the CRC is XORed into the low bytes of a native
// 64-bit load.
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

namespace detail {

/// crc32() computed by the table loop alone, whatever the CPU. For tests: it
/// keeps the portable path checked on CPUs where crc32() folds.
[[nodiscard]] uint32_t crc32_tables(std::span<const std::byte> data);

}  // namespace detail

}  // namespace accelring::util
