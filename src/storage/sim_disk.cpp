#include "storage/sim_disk.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace accelring::storage {

namespace {
constexpr size_t kFaultLogCap = 512;
}  // namespace

const char* crash_mode_name(CrashMode mode) {
  switch (mode) {
    case CrashMode::kDropAll: return "drop_all";
    case CrashMode::kTorn: return "torn";
    case CrashMode::kReorder: return "reorder";
  }
  return "?";
}

SimDisk::SimDisk(uint64_t seed) : rng_(seed) {}

bool SimDisk::gate(IoStatus* status) {
  ++op_count_;
  if (power_cut_) {
    *status = IoStatus::kIoError;
    return false;
  }
  if (cut_countdown_ >= 0) {
    if (cut_countdown_ == 0) {
      power_cut_ = true;
      cut_countdown_ = -1;
      log("power_cut at_op=" + std::to_string(op_count_));
      *status = IoStatus::kIoError;
      return false;
    }
    --cut_countdown_;
  }
  if (stall_remaining_ > 0) {
    --stall_remaining_;
    *status = IoStatus::kIoError;
    return false;
  }
  return true;
}

SimDisk::Inode* SimDisk::visible(const std::string& name) {
  auto it = ns_.find(name);
  if (it == ns_.end()) return nullptr;
  return inodes_.at(it->second).get();
}

uint64_t SimDisk::visible_bytes() const {
  uint64_t total = 0;
  for (const auto& [name, id] : ns_) total += inodes_.at(id)->data.size();
  return total;
}

void SimDisk::gc() {
  for (auto it = inodes_.begin(); it != inodes_.end();) {
    const int id = it->first;
    bool referenced = false;
    for (const auto& [name, ref] : ns_) {
      if (ref == id) { referenced = true; break; }
    }
    if (!referenced) {
      for (const auto& [name, ref] : durable_ns_) {
        if (ref == id) { referenced = true; break; }
      }
    }
    it = referenced ? std::next(it) : inodes_.erase(it);
  }
}

void SimDisk::log(std::string line) {
  if (fault_log_.size() < kFaultLogCap) fault_log_.push_back(std::move(line));
}

IoStatus SimDisk::read(const std::string& name, std::vector<std::byte>& out) {
  if (power_cut_) return IoStatus::kIoError;
  Inode* inode = visible(name);
  if (inode == nullptr) return IoStatus::kNotFound;
  out = inode->data;
  return IoStatus::kOk;
}

IoStatus SimDisk::write(const std::string& name,
                        std::span<const std::byte> data) {
  IoStatus status = IoStatus::kOk;
  if (!gate(&status)) return status;
  Inode* inode = visible(name);
  const uint64_t old_size = inode != nullptr ? inode->data.size() : 0;
  if (capacity_ != 0 && visible_bytes() - old_size + data.size() > capacity_) {
    return IoStatus::kNoSpace;
  }
  if (inode == nullptr) {
    const int id = next_inode_++;
    inodes_[id] = std::make_unique<Inode>();
    ns_[name] = id;
    inode = inodes_[id].get();
  }
  inode->data.assign(data.begin(), data.end());
  inode->pending.push_back(
      Op{Op::Kind::kSet, {data.begin(), data.end()}});
  return IoStatus::kOk;
}

IoStatus SimDisk::append(const std::string& name,
                         std::span<const std::byte> data) {
  IoStatus status = IoStatus::kOk;
  if (!gate(&status)) return status;
  if (capacity_ != 0 && visible_bytes() + data.size() > capacity_) {
    return IoStatus::kNoSpace;
  }
  Inode* inode = visible(name);
  if (inode == nullptr) {
    const int id = next_inode_++;
    inodes_[id] = std::make_unique<Inode>();
    ns_[name] = id;
    inode = inodes_[id].get();
  }
  inode->data.insert(inode->data.end(), data.begin(), data.end());
  inode->pending.push_back(
      Op{Op::Kind::kAppend, {data.begin(), data.end()}});
  return IoStatus::kOk;
}

IoStatus SimDisk::fsync(const std::string& name) {
  IoStatus status = IoStatus::kOk;
  if (!gate(&status)) return status;
  Inode* inode = visible(name);
  if (inode == nullptr) return IoStatus::kNotFound;
  if (desync_) return IoStatus::kOk;  // the cache lies: nothing persisted
  inode->durable = inode->data;
  inode->pending.clear();
  return IoStatus::kOk;
}

IoStatus SimDisk::rename(const std::string& from, const std::string& to) {
  IoStatus status = IoStatus::kOk;
  if (!gate(&status)) return status;
  auto it = ns_.find(from);
  if (it == ns_.end()) return IoStatus::kNotFound;
  const int id = it->second;
  ns_.erase(it);
  ns_[to] = id;
  gc();
  return IoStatus::kOk;
}

IoStatus SimDisk::remove(const std::string& name) {
  IoStatus status = IoStatus::kOk;
  if (!gate(&status)) return status;
  auto it = ns_.find(name);
  if (it == ns_.end()) return IoStatus::kNotFound;
  ns_.erase(it);
  gc();
  return IoStatus::kOk;
}

IoStatus SimDisk::fsync_dir() {
  IoStatus status = IoStatus::kOk;
  if (!gate(&status)) return status;
  durable_ns_ = ns_;  // honored even under a lying write cache
  gc();
  return IoStatus::kOk;
}

bool SimDisk::exists(const std::string& name) {
  return ns_.find(name) != ns_.end();
}

void SimDisk::set_crash_mode(CrashMode mode) {
  crash_mode_ = mode;
  log(std::string("crash_mode ") + crash_mode_name(mode));
}

void SimDisk::set_write_cache_lies(bool lies) {
  if (desync_ == lies) return;
  desync_ = lies;
  log(lies ? "desync on" : "desync off");
}

void SimDisk::set_capacity(uint64_t bytes) {
  capacity_ = bytes;
  log("capacity " + std::to_string(bytes));
}

void SimDisk::stall_ops(int count) {
  stall_remaining_ = count;
  log("stall_ops " + std::to_string(count));
}

void SimDisk::cut_after(int64_t count) {
  cut_countdown_ = count;
  if (count >= 0) log("cut_after " + std::to_string(count));
}

int SimDisk::flip_bits(int count, const std::string& name_prefix) {
  std::vector<Inode*> targets;
  uint64_t total = 0;
  for (const auto& [name, id] : ns_) {
    if (!name_prefix.empty() && name.rfind(name_prefix, 0) != 0) continue;
    Inode* inode = inodes_.at(id).get();
    if (!inode->durable.empty()) {
      targets.push_back(inode);
      total += inode->durable.size();
    }
  }
  if (total == 0) return 0;
  int flipped = 0;
  for (int i = 0; i < count; ++i) {
    uint64_t pos = rng_.below(total);
    for (Inode* inode : targets) {
      if (pos < inode->durable.size()) {
        const auto mask = static_cast<std::byte>(1u << rng_.below(8));
        inode->durable[pos] ^= mask;
        if (pos < inode->data.size()) inode->data[pos] ^= mask;
        ++flipped;
        break;
      }
      pos -= inode->durable.size();
    }
  }
  log("flip_bits count=" + std::to_string(flipped) +
      (name_prefix.empty() ? "" : " prefix=" + name_prefix));
  return flipped;
}

std::vector<std::byte> SimDisk::resolve_crash(const Inode& inode, CrashMode mode,
                                            util::Rng& rng,
                                            std::string* detail) {
  if (inode.pending.empty()) {
    *detail = "clean";
    return inode.durable;
  }
  auto apply = [](std::vector<std::byte>& buf, const Op& op, uint64_t cut) {
    switch (op.kind) {
      case Op::Kind::kSet:
        buf.assign(op.data.begin(), op.data.begin() + static_cast<std::ptrdiff_t>(cut));
        break;
      case Op::Kind::kAppend:
        buf.insert(buf.end(), op.data.begin(), op.data.begin() + static_cast<std::ptrdiff_t>(cut));
        break;
    }
  };
  std::vector<std::byte> buf = inode.durable;
  switch (mode) {
    case CrashMode::kDropAll:
      *detail = "drop_all pending=" + std::to_string(inode.pending.size());
      return buf;
    case CrashMode::kTorn: {
      const uint64_t survive = rng.below(inode.pending.size() + 1);
      for (uint64_t i = 0; i < survive; ++i) {
        apply(buf, inode.pending[i], inode.pending[i].data.size());
      }
      uint64_t cut = 0;
      if (survive < inode.pending.size()) {
        const Op& op = inode.pending[survive];
        if (!op.data.empty()) {
          cut = rng.below(op.data.size() + 1);
          if (cut > 0) apply(buf, op, cut);
        }
      }
      *detail = "torn survive=" + std::to_string(survive) + "/" +
                std::to_string(inode.pending.size()) +
                " cut=" + std::to_string(cut);
      return buf;
    }
    case CrashMode::kReorder: {
      // Each append survives independently; a dropped append beneath a
      // surviving later one becomes a zero gap. A kSet acts as an applied
      // barrier (it reaches the platter before the cache starts lying
      // about ordering of the appends that follow).
      struct Extent {
        uint64_t start = 0;
        bool survived = false;
        const Op* op = nullptr;
      };
      std::vector<Extent> extents;
      // Extents start where the durable content ends: appends only ever
      // extend the file, so a surviving append must never overwrite or
      // truncate bytes an honest fsync already persisted.
      uint64_t end = buf.size();
      size_t total = 0;
      size_t survived = 0;
      for (const Op& op : inode.pending) {
        if (op.kind != Op::Kind::kAppend) {
          apply(buf, op, op.data.size());
          extents.clear();
          end = buf.size();
          continue;
        }
        ++total;
        Extent e;
        e.start = end;
        e.op = &op;
        e.survived = rng.chance(0.5);
        if (e.survived) ++survived;
        end += op.data.size();
        extents.push_back(e);
      }
      uint64_t final_size = buf.size();
      for (const Extent& e : extents) {
        if (e.survived) final_size = e.start + e.op->data.size();
      }
      buf.resize(final_size, std::byte{0});
      for (const Extent& e : extents) {
        if (!e.survived || e.start >= final_size) continue;
        std::copy(e.op->data.begin(), e.op->data.end(), buf.begin() + e.start);
      }
      *detail = "reorder survived=" + std::to_string(survived) + "/" +
                std::to_string(total);
      return buf;
    }
  }
  *detail = "?";
  return buf;
}

void SimDisk::power_loss() {
  ns_ = durable_ns_;
  for (const auto& [name, id] : ns_) {
    Inode* inode = inodes_.at(id).get();
    std::string detail;
    inode->data = resolve_crash(*inode, crash_mode_, rng_, &detail);
    inode->durable = inode->data;
    inode->pending.clear();
    if (detail != "clean") log("power_loss " + name + ": " + detail);
  }
  gc();
  desync_ = false;
  power_cut_ = false;
  cut_countdown_ = -1;
  stall_remaining_ = 0;
  log(std::string("power_loss mode=") + crash_mode_name(crash_mode_));
}

}  // namespace accelring::storage
