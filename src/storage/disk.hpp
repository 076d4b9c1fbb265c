// The storage abstraction: a tiny named-blob filesystem with explicit
// durability barriers, mirroring simnet's sans-io idiom. Everything above
// this interface (WAL, checkpoints, the epoch file) is written once and runs
// unchanged against the deterministic fault-injecting SimDisk in tests and
// against FileDisk (a directory of real files) in production. Blobs that
// must never be seen torn (checkpoints, WAL resets, the epoch) go through
// the one replace() sequence below.
//
// Durability contract (what survives a power loss):
//   * write()/append() data is NOT durable until fsync(name).
//   * rename()/remove() and file *creation* are NOT durable until
//     fsync_dir() — the namespace has its own barrier, exactly like a
//     POSIX directory fsync.
//   * A crash may tear, drop, or reorder any non-durable suffix; SimDisk
//     exercises every one of those behaviours deterministically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace accelring::storage {

enum class IoStatus : uint8_t {
  kOk = 0,
  kNotFound,
  kNoSpace,
  kIoError,
};

class Disk {
 public:
  virtual ~Disk() = default;

  // Reads the whole file into `out` (replacing its contents).
  [[nodiscard]] virtual IoStatus read(const std::string& name,
                                      std::vector<std::byte>& out) = 0;
  // Creates-or-replaces the file with `data`.
  [[nodiscard]] virtual IoStatus write(const std::string& name,
                                       std::span<const std::byte> data) = 0;
  // Appends to the file (creating it if absent).
  [[nodiscard]] virtual IoStatus append(const std::string& name,
                                        std::span<const std::byte> data) = 0;
  // Durability barrier for the file's *data*.
  [[nodiscard]] virtual IoStatus fsync(const std::string& name) = 0;
  // Atomically renames `from` over `to` (replacing it).
  [[nodiscard]] virtual IoStatus rename(const std::string& from,
                                        const std::string& to) = 0;
  [[nodiscard]] virtual IoStatus remove(const std::string& name) = 0;
  // Durability barrier for the namespace (creations/renames/removes).
  [[nodiscard]] virtual IoStatus fsync_dir() = 0;

  [[nodiscard]] virtual bool exists(const std::string& name) = 0;

  // Atomically replaces the file with `data`: write `name`.tmp, fsync it,
  // rename it over `name`, fsync_dir. Stops at the first failing op and
  // returns its status. A crash leaves the old content or the new one,
  // never a torn blob, and after kOk the rename itself is durable.
  [[nodiscard]] IoStatus replace(const std::string& name,
                                 std::span<const std::byte> data) {
    const std::string tmp = name + ".tmp";
    IoStatus status = write(tmp, data);
    if (status == IoStatus::kOk) status = fsync(tmp);
    if (status == IoStatus::kOk) status = rename(tmp, name);
    if (status == IoStatus::kOk) status = fsync_dir();
    return status;
  }
};

}  // namespace accelring::storage
