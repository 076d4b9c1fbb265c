// Durable storage for the membership epoch counter.
//
// Ring identifiers encode (epoch, creator); stale-ring and stale-incarnation
// rejection both rely on the epoch growing monotonically along any merge
// lineage. That holds in memory, but a daemon that crashes and cold-restarts
// forgets max_epoch_seen_ and can mint a ring id it already used in a
// previous life — which the survivors would then (correctly!) reject as
// stale, or worse, confuse with the dead ring. Persisting the high-water
// epoch across restarts closes the hole: a reborn daemon resumes counting
// from strictly above everything it ever created or saw.
//
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace accelring::membership {

class EpochStore {
 public:
  virtual ~EpochStore() = default;
  /// Highest epoch ever stored; 0 when nothing was persisted yet.
  [[nodiscard]] virtual uint64_t load() = 0;
  /// Persist `epoch` if it exceeds the stored value (monotonic).
  virtual void store(uint64_t epoch) = 0;
};

/// File-backed store: writes `path` atomically (temp file + fsync + rename +
/// directory fsync — rename alone is not power-loss durable). A missing or
/// unreadable/garbage file loads as 0 — the store must never stop a daemon
/// from booting; it only raises the epoch floor when it can.
///
/// Implemented over storage::FileDisk + storage::DiskEpochStore (pimpl to
/// keep the storage headers out of membership's public surface).
class FileEpochStore final : public EpochStore {
 public:
  explicit FileEpochStore(std::string path);
  ~FileEpochStore() override;
  [[nodiscard]] uint64_t load() override;
  void store(uint64_t epoch) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace accelring::membership
