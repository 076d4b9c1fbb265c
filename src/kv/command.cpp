#include "kv/command.hpp"

#include "util/bytes.hpp"

namespace accelring::kv {

namespace {

void put_blob(util::Writer& w, const std::string& s) {
  w.bytes(std::as_bytes(std::span{s.data(), s.size()}));
}

std::string take_blob(util::Reader& r) {
  const auto b = r.bytes();
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

}  // namespace

std::vector<std::byte> encode_op(const KvOp& op) {
  util::Writer w(op.key.size() + op.value.size() + op.expect.size() + 24);
  w.u8(static_cast<uint8_t>(op.type));
  w.str(op.key);
  put_blob(w, op.value);
  put_blob(w, op.expect);
  w.u32(op.scan_limit);
  return std::move(w).take();
}

std::optional<KvOp> decode_op(std::span<const std::byte> bytes) {
  util::Reader r(bytes);
  KvOp op;
  op.type = static_cast<OpType>(r.u8());
  op.key = r.str();
  op.value = take_blob(r);
  op.expect = take_blob(r);
  op.scan_limit = r.u32();
  if (!r.done()) return std::nullopt;
  switch (op.type) {
    case OpType::kPut:
    case OpType::kDel:
    case OpType::kCas:
    case OpType::kGet:
    case OpType::kScan:
      return op;
  }
  return std::nullopt;
}

std::vector<std::byte> encode_result(const KvResult& result) {
  util::Writer w(result.value.size() + 16);
  w.u8(static_cast<uint8_t>(result.status));
  put_blob(w, result.value);
  w.u32(result.scan_count);
  w.u32(result.scan_crc);
  return std::move(w).take();
}

std::optional<KvResult> decode_result(std::span<const std::byte> bytes) {
  util::Reader r(bytes);
  KvResult res;
  res.status = static_cast<Status>(r.u8());
  res.value = take_blob(r);
  res.scan_count = r.u32();
  res.scan_crc = r.u32();
  if (!r.done()) return std::nullopt;
  return res;
}

}  // namespace accelring::kv
