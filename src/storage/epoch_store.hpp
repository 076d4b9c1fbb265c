// Durable storage for the membership epoch counter.
//
// Ring identifiers encode (epoch, creator); stale-ring and stale-incarnation
// rejection both rely on the epoch growing monotonically along any merge
// lineage. That holds in memory, but a daemon that crashes and cold-restarts
// forgets its highest epoch and can mint a ring id it already used in a
// previous life — which the survivors would then (correctly!) reject as
// stale, or worse, confuse with the dead ring. Persisting the high-water
// epoch across restarts closes the hole: a reborn daemon resumes counting
// from strictly above everything it ever created or saw.
//
// The blob is ASCII digits + '\n', written with Disk::replace (tmp → fsync
// → rename → fsync_dir; rename alone is not power-loss durable). Anything
// else loads as absent: the store only ever raises the epoch floor, it must
// never stop a daemon from booting. The same class runs over SimDisk in
// simulated clusters and over FileDisk in spread_daemon.
#pragma once

#include <cstdint>
#include <string>

#include "storage/disk.hpp"

namespace accelring::storage {

class EpochStore {
 public:
  /// Largest epoch load() accepts: ring ids keep 48 epoch bits
  /// (membership::make_ring_id), so the next ring id after a larger one
  /// would wrap to a low epoch that was already used.
  static constexpr uint64_t kMaxEpoch = (uint64_t{1} << 48) - 2;

  EpochStore(Disk& disk, std::string name);

  /// Highest epoch ever stored; 0 when nothing valid was persisted yet.
  [[nodiscard]] uint64_t load();
  /// Persist `epoch` if it exceeds the stored value (monotonic).
  void store(uint64_t epoch);

 private:
  Disk& disk_;
  std::string name_;
  uint64_t cached_ = 0;
  bool loaded_ = false;
};

}  // namespace accelring::storage
