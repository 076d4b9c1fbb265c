// Durable write-ahead log + atomic checkpoint store for rsm::Replica,
// written against the Disk interface so the same code runs on SimDisk
// (campaigns, fuzzing) and FileDisk (real daemons).
//
// On-disk layout, per store prefix `p`:
//   p.ckpt — one atomic blob:  magic | position u64 | state bytes | crc32
//   p.wal  — header (magic | base_position u64 | crc32) followed by
//            records (len u32 | crc32(payload) u32 | payload), one per
//            command applied after `base_position`. Records are never
//            empty: len == 0 (whose matching crc is also 0) is reserved as
//            the end-of-log marker recovery uses to stop at zero-filled
//            holes left by lost writes.
//
// Invariants the write protocol maintains (and recovery re-establishes):
//   * The checkpoint is replaced atomically (Disk::replace: tmp → fsync →
//     rename → fsync_dir). A crash leaves either the old or the new
//     checkpoint, never a torn one (a torn blob fails its CRC and counts
//     as absent).
//   * The WAL is reset the same way *after* the checkpoint is durable, so
//     wal.base > ckpt.position never holds on an honest disk.
//   * Every append is fsynced before it is acknowledged; the first append
//     failure latches wal_broken_ so the on-disk WAL stays an exact prefix
//     of the applied command sequence (no appends after a hole). The next
//     successful save_checkpoint() heals the latch.
//
// recover() returns the checkpoint + the valid WAL suffix past it, then
// *normalizes* the on-disk WAL to canonical form (base == checkpoint
// position, records ending exactly at the recovered position) so later
// appends never land after CRC garbage and never get mis-skipped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "storage/disk.hpp"

namespace accelring::storage {

struct RecoverResult {
  bool has_state = false;        // a valid checkpoint was found
  uint64_t position = 0;         // checkpoint position
  std::vector<std::byte> state;  // checkpoint snapshot blob
  std::vector<std::vector<std::byte>> commands;  // valid WAL suffix past it
  // Diagnostics: what recovery had to discard.
  uint64_t dropped_records = 0;  // CRC-invalid / torn WAL tail records
  bool wal_rewritten = false;    // on-disk WAL was normalized
  bool checkpoint_corrupt = false;  // a ckpt file existed but failed checks
};

struct StoreStats {
  uint64_t wal_appends = 0;
  uint64_t wal_append_failures = 0;
  uint64_t checkpoints_saved = 0;
  uint64_t checkpoint_failures = 0;
};

class ReplicaStore {
 public:
  ReplicaStore(Disk& disk, std::string prefix);

  // Reads checkpoint + WAL, normalizes the WAL, returns recovered state.
  // Call once, before any append()/save_checkpoint().
  RecoverResult recover();

  // Appends one command record and fsyncs it. Returns false (and latches
  // the WAL broken) on any IO failure — the caller keeps serving from
  // memory; durability resumes at the next successful checkpoint.
  bool append(std::span<const std::byte> command);

  // Atomically persists (position, state), then resets the WAL to an empty
  // log based at `position`. Returns false if the checkpoint itself could
  // not be made durable (the previous checkpoint+WAL remain in effect).
  bool save_checkpoint(uint64_t position, std::span<const std::byte> state);

  [[nodiscard]] bool wal_broken() const { return wal_broken_; }
  [[nodiscard]] const StoreStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& prefix() const { return prefix_; }

 private:
  [[nodiscard]] std::string ckpt_name() const { return prefix_ + ".ckpt"; }
  [[nodiscard]] std::string wal_name() const { return prefix_ + ".wal"; }
  bool reset_wal(uint64_t base,
                 const std::vector<std::vector<std::byte>>& records);

  Disk& disk_;
  std::string prefix_;
  bool wal_ready_ = false;   // canonical WAL exists on disk
  bool wal_broken_ = false;  // stop appending until the next checkpoint
  StoreStats stats_;
};

}  // namespace accelring::storage
