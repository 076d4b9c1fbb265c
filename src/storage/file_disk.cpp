#include "storage/file_disk.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <utility>

namespace accelring::storage {

namespace {

IoStatus from_errno(int err) {
  switch (err) {
    case ENOENT: return IoStatus::kNotFound;
    case ENOSPC:
    case EDQUOT: return IoStatus::kNoSpace;
    default: return IoStatus::kIoError;
  }
}

// Writes all of `data` to fd, retrying short writes and EINTR.
bool write_all(int fd, std::span<const std::byte> data, int* err) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      *err = errno;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

FileDisk::FileDisk(std::string dir) : dir_(std::move(dir)) {
  ::mkdir(dir_.c_str(), 0755);  // best effort; ops report failures
}

std::string FileDisk::path(const std::string& name) const {
  return dir_ + "/" + name;
}

IoStatus FileDisk::read(const std::string& name, std::vector<std::byte>& out) {
  const int fd = ::open(path(name).c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return from_errno(errno);
  out.clear();
  std::byte buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return from_errno(err);
    }
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  ::close(fd);
  return IoStatus::kOk;
}

IoStatus FileDisk::write(const std::string& name,
                         std::span<const std::byte> data) {
  const int fd = ::open(path(name).c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return from_errno(errno);
  int err = 0;
  if (!write_all(fd, data, &err)) {
    ::close(fd);
    return from_errno(err);
  }
  ::close(fd);
  return IoStatus::kOk;
}

IoStatus FileDisk::append(const std::string& name,
                          std::span<const std::byte> data) {
  const int fd = ::open(path(name).c_str(),
                        O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return from_errno(errno);
  int err = 0;
  if (!write_all(fd, data, &err)) {
    ::close(fd);
    return from_errno(err);
  }
  ::close(fd);
  return IoStatus::kOk;
}

IoStatus FileDisk::fsync(const std::string& name) {
  const int fd = ::open(path(name).c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return from_errno(errno);
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    return from_errno(err);
  }
  ::close(fd);
  return IoStatus::kOk;
}

IoStatus FileDisk::rename(const std::string& from, const std::string& to) {
  if (::rename(path(from).c_str(), path(to).c_str()) != 0) {
    return from_errno(errno);
  }
  return IoStatus::kOk;
}

IoStatus FileDisk::remove(const std::string& name) {
  if (::unlink(path(name).c_str()) != 0) return from_errno(errno);
  return IoStatus::kOk;
}

IoStatus FileDisk::fsync_dir() {
  const int fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return from_errno(errno);
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    return from_errno(err);
  }
  ::close(fd);
  return IoStatus::kOk;
}

bool FileDisk::exists(const std::string& name) {
  struct stat st{};
  return ::stat(path(name).c_str(), &st) == 0;
}

}  // namespace accelring::storage
