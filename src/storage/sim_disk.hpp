// Deterministic in-memory disk with crash/fault semantics, the storage
// counterpart of simnet: same sans-io philosophy, same own-Rng determinism.
//
// The model is a real inode model: names map to inodes, and *two* maps
// exist — the visible namespace and the durable namespace as of the last
// fsync_dir(). Each inode keeps its last durable content (as of the last
// honored fsync) plus the log of mutating ops since. A power loss reverts
// the namespace to the durable map and replays a crash-mode-dependent
// subset of each surviving inode's op log:
//
//   kDropAll  — pending ops vanish; the file reverts to its durable content.
//   kTorn     — a prefix of the pending ops survives, and the first
//               non-surviving op may have been half-applied (its data cut
//               at a random byte) — the classic torn write.
//   kReorder  — append ops survive *independently* (the drive reordered its
//               cache flushes); a dropped append under a surviving later one
//               leaves a zero-filled gap, i.e. CRC garbage mid-file.
//
// rename-without-fsync_dir is exactly as unsafe here as on a real
// filesystem: the durable namespace still points at the old inode.
//
// Fault injection beyond crashes:
//   * set_write_cache_lies(true) — fsync() on file data becomes a lying
//     no-op (ops stay pending) while fsync_dir() stays honored: a consumer
//     write cache with a volatile buffer behind an honest metadata journal.
//   * flip_bits(count, prefix)   — durable bit rot in matching files.
//   * set_capacity(bytes)        — ENOSPC once visible bytes exceed it.
//   * stall_ops(count)           — the next `count` ops fail with kIoError.
//   * cut_after(count)           — power cut mid-sequence: `count` more ops
//     succeed, then every op fails until power_loss() is called. This is
//     the crash-point fuzzing hook.
//
// Every injected fault appends a line to fault_log() so campaign failure
// artifacts can embed the storage schedule verbatim.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/disk.hpp"
#include "util/rng.hpp"

namespace accelring::storage {

enum class CrashMode : uint8_t { kDropAll = 0, kTorn, kReorder };

[[nodiscard]] const char* crash_mode_name(CrashMode mode);

class SimDisk final : public Disk {
 public:
  explicit SimDisk(uint64_t seed);

  IoStatus read(const std::string& name, std::vector<std::byte>& out) override;
  IoStatus write(const std::string& name,
                 std::span<const std::byte> data) override;
  IoStatus append(const std::string& name,
                  std::span<const std::byte> data) override;
  IoStatus truncate(const std::string& name, uint64_t size) override;
  IoStatus fsync(const std::string& name) override;
  IoStatus rename(const std::string& from, const std::string& to) override;
  IoStatus remove(const std::string& name) override;
  IoStatus fsync_dir() override;
  bool exists(const std::string& name) override;
  uint64_t size(const std::string& name) override;

  // --- fault injection -----------------------------------------------------

  // How un-fsynced suffixes die at the next power loss.
  void set_crash_mode(CrashMode mode);
  // Lying write cache: data fsync() stops persisting (returns kOk anyway);
  // fsync_dir() stays honored. Cleared by power_loss().
  void set_write_cache_lies(bool lies);
  [[nodiscard]] bool write_cache_lies() const { return desync_; }
  // Flips `count` random bits across the durable bytes of files whose name
  // starts with `name_prefix` (all files if empty). Returns bits flipped.
  int flip_bits(int count, const std::string& name_prefix = "");
  // Total visible-byte budget; 0 = unlimited. Ops that would exceed it fail
  // with kNoSpace without side effects.
  void set_capacity(uint64_t bytes);
  // The next `count` ops (mutations and fsyncs) fail with kIoError.
  void stall_ops(int count);
  // Allows `count` more successful ops, then fails everything with kIoError
  // until power_loss(). count < 0 disarms.
  void cut_after(int64_t count);
  [[nodiscard]] bool power_cut() const { return power_cut_; }

  // The moment of truth: applies crash semantics to all pending state,
  // reverts the namespace to its durable snapshot, clears desync/stall/cut.
  void power_loss();

  [[nodiscard]] const std::vector<std::string>& fault_log() const {
    return fault_log_;
  }

  // Number of disk ops attempted — fuzzing uses this to enumerate crash
  // points via cut_after().
  [[nodiscard]] uint64_t op_count() const { return op_count_; }

 private:
  struct Op {
    enum class Kind : uint8_t { kSet, kAppend, kTrunc } kind;
    uint64_t trunc_size = 0;    // kTrunc
    std::vector<std::byte> data;  // kSet / kAppend
  };
  struct Inode {
    std::vector<std::byte> durable;  // content as of last honored fsync
    std::vector<std::byte> data;     // visible content
    std::vector<Op> pending;       // mutations since last honored fsync
  };

  // Applies stall/power-cut gates and counts the op. Returns false (with
  // *status set) if a fault consumed this op.
  bool gate(IoStatus* status);
  Inode* visible(const std::string& name);
  [[nodiscard]] uint64_t visible_bytes() const;
  void gc();
  void log(std::string line);
  static std::vector<std::byte> resolve_crash(const Inode& inode, CrashMode mode,
                                            util::Rng& rng,
                                            std::string* detail);

  std::map<int, std::unique_ptr<Inode>> inodes_;
  std::map<std::string, int> ns_;          // visible namespace
  std::map<std::string, int> durable_ns_;  // as of last fsync_dir
  int next_inode_ = 1;
  util::Rng rng_;
  CrashMode crash_mode_ = CrashMode::kDropAll;
  bool desync_ = false;
  bool power_cut_ = false;
  int64_t cut_countdown_ = -1;  // <0 disarmed
  int stall_remaining_ = 0;
  uint64_t capacity_ = 0;  // 0 = unlimited
  uint64_t op_count_ = 0;
  std::vector<std::string> fault_log_;
};

}  // namespace accelring::storage
