// Unit tests for CRC-32: known-answer vectors, properties, differential
// tests of crc32() (which folds with carry-less multiplies where the CPU
// can) and of the slicing-by-8 table loop against the bytewise reference
// loop, and the seal/unseal framing.
#include "util/crc32.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace accelring::util {
namespace {

/// Reference model: the classic one-table, one-byte-per-step loop.
uint32_t crc32_bytewise(std::span<const std::byte> data) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = 0xFFFFFFFFu;
  for (std::byte b : data) {
    c = table[(c ^ static_cast<uint32_t>(b)) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::byte> random_bytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte{static_cast<uint8_t>(rng.below(256))};
  return out;
}

TEST(Crc32, KnownAnswerCheckString) {
  // The canonical CRC-32 check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) { EXPECT_EQ(crc32({}), 0u); }

TEST(Crc32, KnownAnswerMtuPayload) {
  // 1350 B, byte i = i mod 256: the ring's MTU-size payload. Reference
  // value from zlib's crc32().
  std::vector<std::byte> data(1350);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte{static_cast<uint8_t>(i)};
  }
  EXPECT_EQ(crc32(data), 0x34599EFFu);
}

TEST(Crc32, SingleBitChangeChangesCrc) {
  std::vector<std::byte> a(64, std::byte{0});
  std::vector<std::byte> b = a;
  b[17] = std::byte{0x01};
  EXPECT_NE(crc32(a), crc32(b));
}

TEST(Crc32, OrderSensitive) {
  EXPECT_NE(crc32(as_bytes("ab")), crc32(as_bytes("ba")));
}

TEST(Crc32, MatchesBytewiseAtEveryLengthAndAlignment) {
  // Lengths 0..4096 from each start offset 0..15 cover every tail length and
  // every alignment of the 8-byte table loads and the 16-byte fold loads.
  const auto buf = random_bytes(4096 + 16, 1);
  const std::span<const std::byte> all(buf);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 4096; ++len) {
      const auto s = all.subspan(offset, len);
      ASSERT_EQ(crc32(s), crc32_bytewise(s))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, TableLoopMatchesBytewiseAtEveryLengthAndAlignment) {
  const auto buf = random_bytes(4096 + 16, 4);
  const std::span<const std::byte> all(buf);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 4096; ++len) {
      const auto s = all.subspan(offset, len);
      ASSERT_EQ(detail::crc32_tables(s), crc32_bytewise(s))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, MatchesBytewiseOnRandomSlices) {
  const auto buf = random_bytes(64 * 1024, 2);
  const std::span<const std::byte> all(buf);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const size_t offset = rng.below(all.size() + 1);
    const size_t len = rng.below(all.size() - offset + 1);
    const auto s = all.subspan(offset, len);
    ASSERT_EQ(crc32(s), crc32_bytewise(s))
        << "offset " << offset << " length " << len;
  }
}

TEST(Seal, RoundTripsBody) {
  Writer w;
  w.u8(7);
  w.u64(0x0123456789ABCDEFu);
  const auto body = to_vector(w.view());
  seal(w);
  const auto packet = std::move(w).take();
  ASSERT_EQ(packet.size(), body.size() + 4);
  const auto out = unseal(packet);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(std::equal(out->begin(), out->end(), body.begin(), body.end()));
}

TEST(Seal, RejectsCorruptionAndShortPackets) {
  Writer w;
  w.u8(7);
  seal(w);
  auto packet = std::move(w).take();
  for (size_t n = 0; n < packet.size(); ++n) {
    EXPECT_FALSE(unseal(std::span<const std::byte>(packet).first(n)));
  }
  for (size_t i = 0; i < packet.size(); ++i) {
    auto bad = packet;
    bad[i] ^= std::byte{0x10};
    EXPECT_FALSE(unseal(bad)) << "flipped byte " << i;
  }
  // A CRC alone, with no body byte, is not a packet.
  EXPECT_FALSE(unseal(std::span<const std::byte>(packet).subspan(1)));
}

TEST(Seal, RejectsEverySingleBitFlipOfAnMtuDatagram) {
  // 1374 B: a data message with a 1350 B payload, CRC excluded. CRC-32 has
  // Hamming distance >= 4 at this length, so none of the 10,992 body flips
  // nor the 32 CRC flips may pass.
  const auto body = random_bytes(1374, 5);
  Writer w;
  w.raw(body);
  seal(w);
  const auto packet = std::move(w).take();
  ASSERT_TRUE(unseal(packet));
  int accepted = 0;
  for (size_t bit = 0; bit < packet.size() * 8; ++bit) {
    auto bad = packet;
    bad[bit / 8] ^= std::byte{static_cast<uint8_t>(1u << (bit % 8))};
    if (unseal(bad)) ++accepted;
  }
  EXPECT_EQ(accepted, 0);
}

}  // namespace
}  // namespace accelring::util
