#include "storage/epoch_store.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "util/log.hpp"

namespace accelring::storage {

namespace {
constexpr const char* kTag = "epoch_store";
}

EpochStore::EpochStore(Disk& disk, std::string name)
    : disk_(disk), name_(std::move(name)) {}

uint64_t EpochStore::load() {
  if (loaded_) return cached_;
  loaded_ = true;
  cached_ = 0;
  std::vector<std::byte> raw;
  if (disk_.read(name_, raw) != IoStatus::kOk) return cached_;  // first boot
  // Strict format check: store() only ever writes digits + '\n'. Anything
  // else — a torn write, bit rot, a stray edit — is treated as ABSENT, not
  // parsed best-effort: a torn "45" left over from "4567\n" would load as a
  // plausible epoch far below the real floor, which is exactly the
  // stale-ring-id hole this store exists to close.
  const size_t n = raw.size();
  bool valid = n >= 2 && n < 32 &&
               static_cast<char>(raw[n - 1]) == '\n';
  for (size_t i = 0; valid && i + 1 < n; ++i) {
    const char c = static_cast<char>(raw[i]);
    valid = c >= '0' && c <= '9';
  }
  uint64_t epoch = 0;
  if (valid) {
    const std::string digits(reinterpret_cast<const char*>(raw.data()), n - 1);
    // strtoull saturates a longer number to UINT64_MAX, which fails here
    // too: the next ring id would wrap just the same.
    epoch = std::strtoull(digits.c_str(), nullptr, 10);
    valid = epoch <= kMaxEpoch;
  }
  if (!valid) {
    ACCELRING_LOG_WARN(kTag,
                       "corrupt epoch blob %s (%zu bytes): treating as "
                       "absent, re-minting from 0",
                       name_.c_str(), n);
    return cached_;
  }
  cached_ = epoch;
  return cached_;
}

void EpochStore::store(uint64_t epoch) {
  if (epoch <= load()) return;
  cached_ = epoch;
  char buf[32];
  const int len = std::snprintf(buf, sizeof(buf), "%llu\n",
                                static_cast<unsigned long long>(epoch));
  const std::span<const std::byte> data(
      reinterpret_cast<const std::byte*>(buf), static_cast<size_t>(len));
  if (disk_.replace(name_, data) != IoStatus::kOk) {
    ACCELRING_LOG_WARN(kTag, "failed to persist epoch %llu to %s",
                       static_cast<unsigned long long>(epoch), name_.c_str());
  }
}

}  // namespace accelring::storage
