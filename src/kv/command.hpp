// KV op and result wire codecs.
//
// A client operation travels as an ordered rsm command wrapped in the
// FailoverClient session frame — [u64 session uuid][u64 seq][op bytes] — so
// the state machine can suppress duplicate mutations per session exactly the
// way the daemon client library does (one shared exactly-once convention
// across the whole stack). Results are computed locally at every replica;
// only mutation results are persisted (in the per-session cache that makes
// retried mutations return their original result), so the result codec keeps
// scans as a count + content CRC instead of echoing pairs back.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace accelring::kv {

enum class OpType : uint8_t {
  kPut = 1,
  kDel = 2,
  kCas = 3,
  kGet = 4,
  kScan = 5,
};

[[nodiscard]] constexpr bool is_mutation(OpType t) {
  return t == OpType::kPut || t == OpType::kDel || t == OpType::kCas;
}

struct KvOp {
  OpType type = OpType::kGet;
  std::string key;
  std::string value;   ///< put / cas: the new value
  std::string expect;  ///< cas: the expected current value
  uint32_t scan_limit = 0;
};

enum class Status : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kCasMismatch = 2,
};

struct KvResult {
  Status status = Status::kOk;
  std::string value;       ///< get: the value read ("" on miss)
  uint32_t scan_count = 0; ///< scan: pairs visited
  uint32_t scan_crc = 0;   ///< scan: CRC over the visited pairs
};

[[nodiscard]] std::vector<std::byte> encode_op(const KvOp& op);
[[nodiscard]] std::optional<KvOp> decode_op(std::span<const std::byte> bytes);

[[nodiscard]] std::vector<std::byte> encode_result(const KvResult& result);
[[nodiscard]] std::optional<KvResult> decode_result(
    std::span<const std::byte> bytes);

}  // namespace accelring::kv
