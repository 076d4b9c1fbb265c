#include "util/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace accelring::util {
namespace {

static_assert(std::endian::native == std::endian::little,
              "slicing-by-8 folds the CRC into the low bytes of a "
              "little-endian load");

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/// kTables[0] is the classic bytewise table. kTables[k][i] is the CRC
/// contribution of byte i followed by k zero bytes, so one step can fold
/// eight bytes that sit at different distances from the end of the block.
constexpr Tables make_tables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

}  // namespace

uint32_t crc32(std::span<const std::byte> data) {
  uint32_t c = 0xFFFFFFFFu;
  const std::byte* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    word ^= c;
    c = kTables[7][word & 0xFF] ^ kTables[6][(word >> 8) & 0xFF] ^
        kTables[5][(word >> 16) & 0xFF] ^ kTables[4][(word >> 24) & 0xFF] ^
        kTables[3][(word >> 32) & 0xFF] ^ kTables[2][(word >> 40) & 0xFF] ^
        kTables[1][(word >> 48) & 0xFF] ^ kTables[0][word >> 56];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ static_cast<uint32_t>(*p)) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void seal(Writer& w) { w.u32(crc32(w.view())); }

std::optional<std::span<const std::byte>> unseal(
    std::span<const std::byte> packet) {
  if (packet.size() < 5) return std::nullopt;  // one body byte + crc
  const auto body = packet.first(packet.size() - 4);
  Reader tail(packet.subspan(packet.size() - 4));
  if (tail.u32() != crc32(body)) return std::nullopt;
  return body;
}

}  // namespace accelring::util
