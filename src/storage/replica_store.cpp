#include "storage/replica_store.hpp"

#include <utility>

#include "util/bytes.hpp"
#include "util/crc32.hpp"

namespace accelring::storage {

namespace {

constexpr uint32_t kCkptMagic = 0x41524b43;  // "CKRA"
constexpr uint32_t kWalMagic = 0x41524c57;   // "WLRA"
constexpr size_t kWalHeaderSize = 4 + 8 + 4;
// Sanity bound on a single WAL record; anything larger is treated as a
// torn length field.
constexpr uint32_t kMaxRecord = 64u << 20;

std::vector<std::byte> encode_wal_header(uint64_t base) {
  util::Writer w(kWalHeaderSize);
  w.u32(kWalMagic);
  w.u64(base);
  util::seal(w);
  return std::move(w).take();
}

std::vector<std::byte> encode_record(std::span<const std::byte> payload) {
  util::Writer w(8 + payload.size());
  w.u32(static_cast<uint32_t>(payload.size()));
  w.u32(util::crc32(payload));
  w.raw(payload);
  return std::move(w).take();
}

}  // namespace

ReplicaStore::ReplicaStore(Disk& disk, std::string prefix)
    : disk_(disk), prefix_(std::move(prefix)) {}

RecoverResult ReplicaStore::recover() {
  RecoverResult out;

  // 1. Checkpoint: a valid blob is the root of all recovered state. Torn,
  //    rotten, or missing ⇒ no state (the WAL alone is useless without the
  //    snapshot it is based on).
  std::vector<std::byte> blob;
  if (disk_.read(ckpt_name(), blob) == IoStatus::kOk) {
    if (const auto body = util::unseal(blob)) {
      util::Reader r(*body);
      const uint32_t magic = r.u32();
      const uint64_t position = r.u64();
      auto state = r.bytes();
      if (magic == kCkptMagic && r.done()) {
        out.has_state = true;
        out.position = position;
        out.state = util::to_vector(state);
      }
    }
    out.checkpoint_corrupt = !out.has_state;
  }

  // 2. WAL: parse the header, skip records the checkpoint already covers,
  //    collect the CRC-valid suffix, stop at the first invalid record.
  std::vector<std::byte> wal;
  bool wal_valid = false;
  uint64_t base = 0;
  size_t consumed = 0;  // bytes of `wal` that parsed cleanly
  uint64_t records_seen = 0;
  if (out.has_state && disk_.read(wal_name(), wal) == IoStatus::kOk &&
      wal.size() >= kWalHeaderSize) {
    if (const auto hdr =
            util::unseal(std::span<const std::byte>(wal).first(kWalHeaderSize))) {
      util::Reader r(*hdr);
      const uint32_t magic = r.u32();
      base = r.u64();
      wal_valid = magic == kWalMagic && base <= out.position;
    }
    if (wal_valid) {
      consumed = kWalHeaderSize;
      const uint64_t skip = out.position - base;
      while (wal.size() - consumed >= 8) {
        util::Reader rec(std::span<const std::byte>(wal).subspan(consumed));
        const uint32_t len = rec.u32();
        const uint32_t rec_crc = rec.u32();
        // len == 0 with crc == 0 is exactly what a zero-filled hole looks
        // like (crc32 of an empty span is 0), and real commands are never
        // empty — so a zero-length record terminates the valid prefix.
        // Accepting it would let the scan walk across a hole left by a
        // reordered lost write and resume on intact records beyond it,
        // recovering a long lineage with commands silently missing from the
        // middle.
        if (len == 0 || len > kMaxRecord || rec.remaining() < len) break;
        auto payload = rec.raw(len);
        if (util::crc32(payload) != rec_crc) break;
        ++records_seen;
        if (records_seen > skip) {
          out.commands.push_back(util::to_vector(payload));
        }
        consumed += 8 + len;
      }
    }
  }
  if (!wal.empty() && !wal_valid) out.dropped_records = 1;  // header torn
  if (wal_valid && consumed < wal.size()) ++out.dropped_records;

  // 3. Normalize: after this, the on-disk WAL is canonical — header based
  //    at the checkpoint position, then exactly the surviving commands.
  //    Without this, a later append would land after CRC garbage (lost) or
  //    a stale base would mis-skip live records on the next recovery.
  if (out.has_state) {
    const bool canonical = wal_valid && base == out.position &&
                           consumed == wal.size();
    if (canonical) {
      wal_ready_ = true;
    } else {
      out.wal_rewritten = true;
      wal_ready_ = reset_wal(out.position, out.commands);
      wal_broken_ = !wal_ready_;
    }
  } else {
    // No usable checkpoint: scrap whatever is on disk so a later founding
    // checkpoint starts from a clean slate.
    if (disk_.exists(wal_name())) (void)disk_.remove(wal_name());
    if (disk_.exists(ckpt_name())) (void)disk_.remove(ckpt_name());
    (void)disk_.fsync_dir();
  }
  return out;
}

bool ReplicaStore::append(std::span<const std::byte> command) {
  if (command.empty()) {
    // Zero-length records are indistinguishable from zero-filled holes, so
    // recovery treats them as end-of-log. Refuse to write one rather than
    // silently truncate the lineage on the next restart. (Replica commands
    // are always framed and non-empty; this is a contract backstop.)
    ++stats_.wal_append_failures;
    wal_broken_ = true;
    return false;
  }
  if (wal_broken_ || !wal_ready_) {
    ++stats_.wal_append_failures;
    wal_broken_ = true;
    return false;
  }
  const auto record = encode_record(command);
  if (disk_.append(wal_name(), record) != IoStatus::kOk ||
      disk_.fsync(wal_name()) != IoStatus::kOk) {
    // Latch: the on-disk WAL must stay an exact prefix of the applied
    // sequence, so after one hole we stop appending entirely.
    ++stats_.wal_append_failures;
    wal_broken_ = true;
    return false;
  }
  ++stats_.wal_appends;
  return true;
}

bool ReplicaStore::reset_wal(
    uint64_t base, const std::vector<std::vector<std::byte>>& records) {
  std::vector<std::byte> blob = encode_wal_header(base);
  for (const auto& rec : records) {
    const auto encoded = encode_record(rec);
    blob.insert(blob.end(), encoded.begin(), encoded.end());
  }
  return disk_.replace(wal_name(), blob) == IoStatus::kOk;
}

bool ReplicaStore::save_checkpoint(uint64_t position,
                                   std::span<const std::byte> state) {
  // Checkpoint first — only once it is durable may the WAL shrink, so
  // wal.base > ckpt.position never holds on an honest disk.
  util::Writer w(16 + state.size());
  w.u32(kCkptMagic);
  w.u64(position);
  w.bytes(state);
  util::seal(w);
  if (disk_.replace(ckpt_name(), std::move(w).take()) != IoStatus::kOk) {
    ++stats_.checkpoint_failures;
    return false;
  }
  if (!reset_wal(position, {})) {
    // The checkpoint is durable but the fresh WAL is not; appends must not
    // continue into a log whose durable base may predate the checkpoint.
    ++stats_.checkpoint_failures;
    wal_broken_ = true;
    return false;
  }
  wal_ready_ = true;
  wal_broken_ = false;
  ++stats_.checkpoints_saved;
  return true;
}

}  // namespace accelring::storage
