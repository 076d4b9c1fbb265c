// Fixed-width little-endian serialization primitives.
//
// All wire formats in this project (token messages, data messages, membership
// messages, IPC frames) are encoded with Writer and decoded with Reader. The
// codec is deliberately boring: explicit little-endian fixed-width integers,
// length-prefixed byte strings, no varints, no alignment tricks. Decoding is
// fail-soft: a Reader that runs past the end of its buffer sets an error flag
// and returns zeroes, and callers check `ok()` once at the end instead of
// checking every field.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace accelring::util {

/// Append-only buffer for encoding wire messages.
class Writer {
 public:
  Writer() = default;
  /// Reserve capacity up front to avoid reallocation on hot paths.
  explicit Writer(size_t reserve) { buf_.reserve(reserve); }
  /// Write into `buf`'s storage, emptied first: a caller that hands the
  /// same buffer back each time (via take()) stops allocating.
  Writer(std::vector<std::byte> buf, size_t reserve) : buf_(std::move(buf)) {
    buf_.clear();
    buf_.reserve(reserve);
  }

  void u8(uint8_t v) { buf_.push_back(std::byte{v}); }
  void u16(uint16_t v) { append_le(v); }
  void u32(uint32_t v) { append_le(v); }
  void u64(uint64_t v) { append_le(v); }
  void i64(int64_t v) { append_le(static_cast<uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed (u32) byte string.
  void bytes(std::span<const std::byte> data) {
    u32(static_cast<uint32_t>(data.size()));
    raw(data);
  }

  /// Length-prefixed (u16) UTF-8 string; used for group and sender names.
  void str(std::string_view s) {
    u16(static_cast<uint16_t>(s.size()));
    raw(std::as_bytes(std::span{s.data(), s.size()}));
  }

  /// Raw bytes with no length prefix.
  void raw(std::span<const std::byte> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Overwrite a previously written u32 at `pos` (for back-patching lengths).
  void patch_u32(size_t pos, uint32_t v);

  [[nodiscard]] size_t size() const { return buf_.size(); }
  [[nodiscard]] std::span<const std::byte> view() const { return buf_; }
  [[nodiscard]] std::vector<std::byte> take() && { return std::move(buf_); }

 private:
  template <typename T>
  void append_le(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(std::byte{static_cast<uint8_t>(v >> (8 * i))});
    }
  }

  std::vector<std::byte> buf_;
};

/// Forward-only decoder over a borrowed byte span.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  uint8_t u8() {
    if (!ensure(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint16_t u16() { return read_le<uint16_t>(); }
  uint32_t u32() { return read_le<uint32_t>(); }
  uint64_t u64() { return read_le<uint64_t>(); }
  int64_t i64() { return static_cast<int64_t>(read_le<uint64_t>()); }
  bool boolean() { return u8() != 0; }

  /// Length-prefixed (u32) byte string; returns a view into the buffer.
  std::span<const std::byte> bytes() {
    const uint32_t n = u32();
    return raw(n);
  }

  /// Length-prefixed (u16) string.
  std::string str() {
    const uint16_t n = u16();
    auto s = raw(n);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }

  /// Raw view of `n` bytes (empty view + error flag on underrun).
  std::span<const std::byte> raw(size_t n) {
    if (!ensure(n)) return {};
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool ok() const { return ok_; }
  /// True when the whole buffer was consumed without underrun.
  [[nodiscard]] bool done() const { return ok_ && pos_ == data_.size(); }

 private:
  bool ensure(size_t n) {
    if (pos_ + n > data_.size()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  template <typename T>
  T read_le() {
    if (!ensure(sizeof(T))) return 0;
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::byte> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Convenience: copy a span into an owned vector.
[[nodiscard]] inline std::vector<std::byte> to_vector(
    std::span<const std::byte> s) {
  return {s.begin(), s.end()};
}

/// Convenience: view a string as bytes (for test payloads).
[[nodiscard]] inline std::span<const std::byte> as_bytes(std::string_view s) {
  return std::as_bytes(std::span{s.data(), s.size()});
}

}  // namespace accelring::util
