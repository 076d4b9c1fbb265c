// The production Disk: a directory of real files with honest POSIX
// durability — fsync() on data, fsync() of the directory fd for namespace
// barriers (rename alone is not power-loss durable, which is why
// Disk::replace ends with fsync_dir()).
#pragma once

#include <string>
#include <vector>

#include "storage/disk.hpp"

namespace accelring::storage {

class FileDisk final : public Disk {
 public:
  // `dir` is created (mkdir -p style for the final component) if absent.
  explicit FileDisk(std::string dir);

  IoStatus read(const std::string& name, std::vector<std::byte>& out) override;
  IoStatus write(const std::string& name,
                 std::span<const std::byte> data) override;
  IoStatus append(const std::string& name,
                  std::span<const std::byte> data) override;
  IoStatus fsync(const std::string& name) override;
  IoStatus rename(const std::string& from, const std::string& to) override;
  IoStatus remove(const std::string& name) override;
  IoStatus fsync_dir() override;
  bool exists(const std::string& name) override;

  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  [[nodiscard]] std::string path(const std::string& name) const;

  std::string dir_;
};

}  // namespace accelring::storage
