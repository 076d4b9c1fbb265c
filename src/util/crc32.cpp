#include "util/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

/// Advance the running (pre-inverted) CRC `c` over `n` bytes at `p`.
uint32_t tables_update(uint32_t c, const std::byte* p, size_t n) {
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
  return c;
}

#if defined(__x86_64__)

/// The four-lane fold starts from 64 bytes; shorter inputs stay on the table
/// loop.
constexpr size_t kFoldMin = 64;

/// x.lo * k.lo ^ x.hi * k.hi ^ next: moves x forward by the distance k
/// encodes and adds the block that sits there.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i x,
                                                             __m128i k,
                                                             __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// Advance the running CRC `c` over `n` bytes at `p` by carry-less
/// multiplication (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ", Intel 2009). Needs n >= 64 and n a multiple
/// of 16. The fold constants are bit-reflected powers of x modulo the IEEE
/// polynomial P for the fold distances noted beside them; the values are the
/// ones in Linux crc32-pclmul_asm.S and Chromium zlib's crc32_simd.c.
__attribute__((target("pclmul,sse4.1"))) uint32_t fold_update(
    uint32_t c, const std::byte* p, size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);  // 512 b
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);  // 128 b
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);                // 64 b
  // Barrett: P' = x^64 / P (high) and P itself (low), both bit-reflected.
  const __m128i mu_poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  const auto load = [](const std::byte* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };

  // Four lanes, each folded 512 bits forward per 64-byte step.
  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }

  // Lanes into one, then single 16-byte blocks.
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 bits to 64, then 64 to 32 by Barrett reduction.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_srli_si128(x1, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), mu_poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), mu_poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool cpu_has_fold() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

#endif  // __x86_64__

}  // namespace

uint32_t crc32(std::span<const std::byte> data) {
  uint32_t c = 0xFFFFFFFFu;
  const std::byte* p = data.data();
  size_t n = data.size();
#if defined(__x86_64__)
  if (n >= kFoldMin && cpu_has_fold()) {
    const size_t bulk = n & ~size_t{15};
    c = fold_update(c, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return tables_update(c, p, n) ^ 0xFFFFFFFFu;
}

namespace detail {

uint32_t crc32_tables(std::span<const std::byte> data) {
  return tables_update(0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu;
}

}  // namespace detail

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
