// Storage layer unit tests: SimDisk crash/fault semantics (the simnet-style
// deterministic disk), ReplicaStore WAL+checkpoint round-trips with
// torn-write and bit-rot rejection, the epoch store's format checks, and
// the real-file FileDisk against an actual temp directory (failover_test
// covers the epoch store over FileDisk).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "storage/epoch_store.hpp"
#include "storage/file_disk.hpp"
#include "storage/replica_store.hpp"
#include "storage/sim_disk.hpp"
#include "util/bytes.hpp"

namespace accelring::storage {
namespace {

std::vector<std::byte> blob(const std::string& s) {
  std::vector<std::byte> out(s.size());
  for (size_t i = 0; i < s.size(); ++i) out[i] = static_cast<std::byte>(s[i]);
  return out;
}

std::string str(const std::vector<std::byte>& b) {
  std::string out(b.size(), '\0');
  for (size_t i = 0; i < b.size(); ++i) out[i] = static_cast<char>(b[i]);
  return out;
}

std::vector<std::byte> contents(Disk& disk, const std::string& name) {
  std::vector<std::byte> out;
  EXPECT_EQ(disk.read(name, out), IoStatus::kOk) << name;
  return out;
}

// ---------------------------------------------------------------------------
// SimDisk durability semantics.

TEST(SimDiskTest, UnsyncedDataDiesAtPowerLoss) {
  SimDisk disk(1);
  ASSERT_EQ(disk.write("f", blob("hello")), IoStatus::kOk);
  ASSERT_EQ(disk.fsync("f"), IoStatus::kOk);
  ASSERT_EQ(disk.fsync_dir(), IoStatus::kOk);
  ASSERT_EQ(disk.append("f", blob(" world")), IoStatus::kOk);  // not fsynced
  disk.power_loss();
  std::vector<std::byte> out;
  ASSERT_EQ(disk.read("f", out), IoStatus::kOk);
  EXPECT_EQ(str(out), "hello");
}

TEST(SimDiskTest, CreationWithoutDirFsyncDiesAtPowerLoss) {
  SimDisk disk(2);
  ASSERT_EQ(disk.write("f", blob("data")), IoStatus::kOk);
  ASSERT_EQ(disk.fsync("f"), IoStatus::kOk);  // data synced, name is not
  disk.power_loss();
  EXPECT_FALSE(disk.exists("f"));
}

TEST(SimDiskTest, RenameWithoutDirFsyncRevertsAtPowerLoss) {
  SimDisk disk(3);
  ASSERT_EQ(disk.write("old", blob("v1")), IoStatus::kOk);
  ASSERT_EQ(disk.fsync("old"), IoStatus::kOk);
  ASSERT_EQ(disk.fsync_dir(), IoStatus::kOk);
  ASSERT_EQ(disk.write("new", blob("v2")), IoStatus::kOk);
  ASSERT_EQ(disk.fsync("new"), IoStatus::kOk);
  ASSERT_EQ(disk.rename("new", "old"), IoStatus::kOk);  // no fsync_dir
  disk.power_loss();
  std::vector<std::byte> out;
  ASSERT_EQ(disk.read("old", out), IoStatus::kOk);
  EXPECT_EQ(str(out), "v1");  // durable namespace still points at v1
  EXPECT_FALSE(disk.exists("new"));
}

TEST(SimDiskTest, FullProtocolSurvivesPowerLoss) {
  SimDisk disk(4);
  ASSERT_EQ(disk.write("f.tmp", blob("payload")), IoStatus::kOk);
  ASSERT_EQ(disk.fsync("f.tmp"), IoStatus::kOk);
  ASSERT_EQ(disk.rename("f.tmp", "f"), IoStatus::kOk);
  ASSERT_EQ(disk.fsync_dir(), IoStatus::kOk);
  disk.power_loss();
  std::vector<std::byte> out;
  ASSERT_EQ(disk.read("f", out), IoStatus::kOk);
  EXPECT_EQ(str(out), "payload");
}

TEST(SimDiskTest, ReplaceRunsTheFullProtocolAndStopsAtTheFirstFailure) {
  SimDisk disk(12);
  ASSERT_EQ(disk.replace("f", blob("v1")), IoStatus::kOk);
  EXPECT_EQ(disk.op_count(), 4u);  // write, fsync, rename, fsync_dir
  EXPECT_FALSE(disk.exists("f.tmp"));
  // A failed tmp write issues nothing after it.
  disk.stall_ops(1);
  EXPECT_EQ(disk.replace("f", blob("v2")), IoStatus::kIoError);
  EXPECT_EQ(disk.op_count(), 5u);
  EXPECT_FALSE(disk.exists("f.tmp"));
  // Power cut at the rename: the old content survives the power loss.
  disk.cut_after(2);
  EXPECT_EQ(disk.replace("f", blob("v3")), IoStatus::kIoError);
  EXPECT_EQ(disk.op_count(), 8u);
  disk.power_loss();
  EXPECT_EQ(str(contents(disk, "f")), "v1");
}

TEST(SimDiskTest, TornModeKeepsOnlyAPrefixOfPendingOps) {
  SimDisk disk(5);
  disk.set_crash_mode(CrashMode::kTorn);
  ASSERT_EQ(disk.write("f", blob("base;")), IoStatus::kOk);
  ASSERT_EQ(disk.fsync("f"), IoStatus::kOk);
  ASSERT_EQ(disk.fsync_dir(), IoStatus::kOk);
  ASSERT_EQ(disk.append("f", blob("aaaa;")), IoStatus::kOk);
  ASSERT_EQ(disk.append("f", blob("bbbb;")), IoStatus::kOk);
  disk.power_loss();
  std::vector<std::byte> out;
  ASSERT_EQ(disk.read("f", out), IoStatus::kOk);
  const std::string got = str(out);
  // Whatever survives must be a (possibly cut) prefix of the full write
  // sequence — torn mode never reorders.
  const std::string full = "base;aaaa;bbbb;";
  EXPECT_TRUE(got.size() <= full.size() && got == full.substr(0, got.size()))
      << "got \"" << got << "\"";
  EXPECT_TRUE(got.size() >= 5) << "durable prefix must survive";
}

TEST(SimDiskTest, ReorderModeZeroFillsGaps) {
  // With many pending appends, reorder mode keeps each independently; a
  // dropped append under a surviving later one leaves a zero-filled gap.
  // Run several seeds so at least one produces a mid-file gap.
  bool saw_gap = false;
  for (uint64_t seed = 1; seed < 30 && !saw_gap; ++seed) {
    SimDisk disk(seed);
    disk.set_crash_mode(CrashMode::kReorder);
    ASSERT_EQ(disk.write("f", blob("")), IoStatus::kOk);
    ASSERT_EQ(disk.fsync("f"), IoStatus::kOk);
    ASSERT_EQ(disk.fsync_dir(), IoStatus::kOk);
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(disk.append("f", blob("XXXX")), IoStatus::kOk);
    }
    disk.power_loss();
    std::vector<std::byte> out;
    ASSERT_EQ(disk.read("f", out), IoStatus::kOk);
    const std::string got = str(out);
    // Any byte must be 'X' or NUL, and a NUL below the file end is a gap.
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i] == 'X' || got[i] == '\0');
      if (got[i] == '\0') saw_gap = true;
    }
  }
  EXPECT_TRUE(saw_gap) << "no seed produced a zero-filled gap";
}

TEST(SimDiskTest, LyingWriteCacheDropsFsyncedDataAtPowerLoss) {
  SimDisk disk(6);
  ASSERT_EQ(disk.write("f", blob("safe")), IoStatus::kOk);
  ASSERT_EQ(disk.fsync("f"), IoStatus::kOk);
  ASSERT_EQ(disk.fsync_dir(), IoStatus::kOk);
  disk.set_write_cache_lies(true);
  ASSERT_EQ(disk.append("f", blob("lost")), IoStatus::kOk);
  ASSERT_EQ(disk.fsync("f"), IoStatus::kOk);  // lies: reports ok, persists nothing
  disk.power_loss();
  std::vector<std::byte> out;
  ASSERT_EQ(disk.read("f", out), IoStatus::kOk);
  EXPECT_EQ(str(out), "safe");
  EXPECT_FALSE(disk.write_cache_lies()) << "power loss clears desync";
}

TEST(SimDiskTest, BitRotOnlyTouchesMatchingDurableFiles) {
  SimDisk disk(7);
  ASSERT_EQ(disk.write("shard0.wal", blob("aaaaaaaa")), IoStatus::kOk);
  ASSERT_EQ(disk.fsync("shard0.wal"), IoStatus::kOk);
  ASSERT_EQ(disk.write("epoch", blob("12345\n")), IoStatus::kOk);
  ASSERT_EQ(disk.fsync("epoch"), IoStatus::kOk);
  ASSERT_EQ(disk.fsync_dir(), IoStatus::kOk);
  const int flipped = disk.flip_bits(4, "shard");
  EXPECT_EQ(flipped, 4);
  std::vector<std::byte> epoch;
  ASSERT_EQ(disk.read("epoch", epoch), IoStatus::kOk);
  EXPECT_EQ(str(epoch), "12345\n") << "prefix filter must protect other files";
  std::vector<std::byte> wal;
  ASSERT_EQ(disk.read("shard0.wal", wal), IoStatus::kOk);
  EXPECT_NE(str(wal), "aaaaaaaa") << "four flipped bits must be visible";
}

TEST(SimDiskTest, CapacityLimitReportsNoSpaceWithoutSideEffects) {
  SimDisk disk(8);
  ASSERT_EQ(disk.write("f", blob("1234")), IoStatus::kOk);
  disk.set_capacity(4);
  EXPECT_EQ(disk.append("f", blob("5678")), IoStatus::kNoSpace);
  std::vector<std::byte> out;
  ASSERT_EQ(disk.read("f", out), IoStatus::kOk);
  EXPECT_EQ(str(out), "1234");
  disk.set_capacity(0);
  EXPECT_EQ(disk.append("f", blob("5678")), IoStatus::kOk);
}

TEST(SimDiskTest, StalledOpsFailThenRecover) {
  SimDisk disk(9);
  disk.stall_ops(2);
  EXPECT_EQ(disk.write("f", blob("x")), IoStatus::kIoError);
  EXPECT_EQ(disk.fsync_dir(), IoStatus::kIoError);
  EXPECT_EQ(disk.write("f", blob("x")), IoStatus::kOk);
}

TEST(SimDiskTest, CutAfterFailsEverythingUntilPowerLoss) {
  SimDisk disk(10);
  disk.cut_after(1);
  EXPECT_EQ(disk.write("f", blob("x")), IoStatus::kOk);  // the 1 allowed op
  EXPECT_EQ(disk.fsync("f"), IoStatus::kIoError);
  EXPECT_EQ(disk.write("g", blob("y")), IoStatus::kIoError);
  EXPECT_TRUE(disk.power_cut());
  disk.power_loss();
  EXPECT_FALSE(disk.power_cut());
  EXPECT_EQ(disk.write("g", blob("y")), IoStatus::kOk);
}

TEST(SimDiskTest, FaultLogRecordsInjections) {
  SimDisk disk(11);
  disk.set_write_cache_lies(true);
  disk.power_loss();
  EXPECT_GE(disk.fault_log().size(), 2u);  // desync + power loss at least
}

// ---------------------------------------------------------------------------
// ReplicaStore: WAL + checkpoint round-trips and corruption rejection.

TEST(ReplicaStoreTest, EmptyDiskRecoversToNothing) {
  SimDisk disk(20);
  ReplicaStore store(disk, "shard0");
  const RecoverResult r = store.recover();
  EXPECT_FALSE(r.has_state);
  EXPECT_TRUE(r.commands.empty());
}

TEST(ReplicaStoreTest, CheckpointPlusWalRoundTripsThroughPowerLoss) {
  SimDisk disk(21);
  {
    ReplicaStore store(disk, "shard0");
    (void)store.recover();
    ASSERT_TRUE(store.save_checkpoint(10, blob("state@10")));
    ASSERT_TRUE(store.append(blob("cmd11")));
    ASSERT_TRUE(store.append(blob("cmd12")));
  }
  disk.power_loss();
  ReplicaStore store(disk, "shard0");
  const RecoverResult r = store.recover();
  ASSERT_TRUE(r.has_state);
  EXPECT_EQ(r.position, 10u);
  EXPECT_EQ(str(r.state), "state@10");
  ASSERT_EQ(r.commands.size(), 2u);
  EXPECT_EQ(str(r.commands[0]), "cmd11");
  EXPECT_EQ(str(r.commands[1]), "cmd12");
  // Recovered store accepts further appends on the normalized WAL.
  EXPECT_TRUE(store.append(blob("cmd13")));
}

TEST(ReplicaStoreTest, NewCheckpointTruncatesWal) {
  SimDisk disk(22);
  ReplicaStore store(disk, "shard0");
  (void)store.recover();
  ASSERT_TRUE(store.save_checkpoint(0, blob("s0")));
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(store.append(blob("c")));
  const size_t wal_before = contents(disk, "shard0.wal").size();
  ASSERT_TRUE(store.save_checkpoint(5, blob("s5")));
  EXPECT_LT(contents(disk, "shard0.wal").size(), wal_before);
  disk.power_loss();
  ReplicaStore fresh(disk, "shard0");
  const RecoverResult r = fresh.recover();
  ASSERT_TRUE(r.has_state);
  EXPECT_EQ(r.position, 5u);
  EXPECT_TRUE(r.commands.empty());
}

TEST(ReplicaStoreTest, TornWalTailIsDroppedNotAccepted) {
  SimDisk disk(23);
  ReplicaStore store(disk, "shard0");
  (void)store.recover();
  ASSERT_TRUE(store.save_checkpoint(0, blob("s")));
  ASSERT_TRUE(store.append(blob("first-command")));
  ASSERT_TRUE(store.append(blob("second-command")));
  // Tear the last record: rewrite the WAL a few bytes short.
  std::vector<std::byte> wal = contents(disk, "shard0.wal");
  wal.resize(wal.size() - 3);
  ASSERT_EQ(disk.write("shard0.wal", wal), IoStatus::kOk);
  ASSERT_EQ(disk.fsync("shard0.wal"), IoStatus::kOk);
  disk.power_loss();
  ReplicaStore fresh(disk, "shard0");
  const RecoverResult r = fresh.recover();
  ASSERT_TRUE(r.has_state);
  ASSERT_EQ(r.commands.size(), 1u);
  EXPECT_EQ(str(r.commands[0]), "first-command");
  EXPECT_GE(r.dropped_records, 1u);
  EXPECT_TRUE(r.wal_rewritten);
}

TEST(ReplicaStoreTest, ZeroFilledHoleTerminatesTheWalScan) {
  // A reorder-mode crash can zero a dropped append under a surviving later
  // one. crc32("") == 0, so an 8-byte zero run would parse as a valid empty
  // record — recovery must treat it as end-of-log, not step across it.
  SimDisk disk(24);
  ReplicaStore store(disk, "shard0");
  (void)store.recover();
  ASSERT_TRUE(store.save_checkpoint(0, blob("s")));
  ASSERT_TRUE(store.append(blob("aaaaaaaa")));  // 8-byte payload: 16B record
  ASSERT_TRUE(store.append(blob("bbbbbbbb")));
  ASSERT_TRUE(store.append(blob("cccccccc")));
  // Overwrite the middle record (16 bytes at offset header+16) with zeros,
  // exactly what a lost reordered write leaves behind.
  std::vector<std::byte> wal;
  ASSERT_EQ(disk.read("shard0.wal", wal), IoStatus::kOk);
  for (size_t i = 16 + 16; i < 16 + 32; ++i) wal[i] = std::byte{0};
  ASSERT_EQ(disk.write("shard0.wal", wal), IoStatus::kOk);
  ASSERT_EQ(disk.fsync("shard0.wal"), IoStatus::kOk);
  disk.power_loss();
  ReplicaStore fresh(disk, "shard0");
  const RecoverResult r = fresh.recover();
  ASSERT_TRUE(r.has_state);
  ASSERT_EQ(r.commands.size(), 1u) << "scan must stop at the hole";
  EXPECT_EQ(str(r.commands[0]), "aaaaaaaa");
}

TEST(ReplicaStoreTest, EmptyCommandAppendIsRefused) {
  SimDisk disk(25);
  ReplicaStore store(disk, "shard0");
  (void)store.recover();
  ASSERT_TRUE(store.save_checkpoint(0, blob("s")));
  EXPECT_FALSE(store.append({}));
  EXPECT_TRUE(store.wal_broken());
}

TEST(ReplicaStoreTest, BitRottenCheckpointIsRejected) {
  SimDisk disk(26);
  {
    ReplicaStore store(disk, "shard0");
    (void)store.recover();
    ASSERT_TRUE(store.save_checkpoint(7, blob("important state bytes")));
  }
  ASSERT_GT(disk.flip_bits(1, "shard0.ckpt"), 0);
  ReplicaStore fresh(disk, "shard0");
  const RecoverResult r = fresh.recover();
  EXPECT_FALSE(r.has_state) << "a rotten checkpoint must not load";
  EXPECT_TRUE(r.checkpoint_corrupt);
}

TEST(ReplicaStoreTest, BitRottenWalRecordIsDropped) {
  SimDisk disk(27);
  ReplicaStore store(disk, "shard0");
  (void)store.recover();
  ASSERT_TRUE(store.save_checkpoint(0, blob("s")));
  ASSERT_TRUE(store.append(blob("command-payload-one")));
  ASSERT_TRUE(store.append(blob("command-payload-two")));
  // Rot one bit somewhere past the WAL header (offset 16): both records may
  // die (first record hit) or just the second — never an invented command.
  std::vector<std::byte> wal;
  ASSERT_EQ(disk.read("shard0.wal", wal), IoStatus::kOk);
  wal[20] = wal[20] ^ std::byte{0x10};
  ASSERT_EQ(disk.write("shard0.wal", wal), IoStatus::kOk);
  ASSERT_EQ(disk.fsync("shard0.wal"), IoStatus::kOk);
  disk.power_loss();
  ReplicaStore fresh(disk, "shard0");
  const RecoverResult r = fresh.recover();
  ASSERT_TRUE(r.has_state);
  EXPECT_TRUE(r.commands.empty()) << "the rotten first record must not load";
}

TEST(ReplicaStoreTest, AppendFailureLatchesUntilNextCheckpoint) {
  SimDisk disk(28);
  ReplicaStore store(disk, "shard0");
  (void)store.recover();
  ASSERT_TRUE(store.save_checkpoint(0, blob("s")));
  disk.stall_ops(1);  // fails the append's disk write; fsync is short-circuited
  EXPECT_FALSE(store.append(blob("lost")));
  EXPECT_TRUE(store.wal_broken());
  EXPECT_FALSE(store.append(blob("also refused")));  // latched
  ASSERT_TRUE(store.save_checkpoint(2, blob("s2")));  // heals
  EXPECT_FALSE(store.wal_broken());
  EXPECT_TRUE(store.append(blob("accepted again")));
}

// ---------------------------------------------------------------------------
// Real-file backends.

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/accelring-storage-XXXXXX";
    dir_ = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    if (!dir_.empty()) {
      const std::string cmd = "rm -rf '" + dir_ + "'";
      (void)::system(cmd.c_str());
    }
  }
  [[nodiscard]] const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

TEST(FileDiskTest, WriteReadRenameRemoveRoundTrip) {
  TempDir tmp;
  ASSERT_FALSE(tmp.path().empty());
  FileDisk disk(tmp.path() + "/node0");
  ASSERT_EQ(disk.write("f.tmp", blob("content")), IoStatus::kOk);
  ASSERT_EQ(disk.fsync("f.tmp"), IoStatus::kOk);
  ASSERT_EQ(disk.rename("f.tmp", "f"), IoStatus::kOk);
  ASSERT_EQ(disk.fsync_dir(), IoStatus::kOk);
  EXPECT_TRUE(disk.exists("f"));
  EXPECT_FALSE(disk.exists("f.tmp"));
  std::vector<std::byte> out;
  ASSERT_EQ(disk.read("f", out), IoStatus::kOk);
  EXPECT_EQ(str(out), "content");
  ASSERT_EQ(disk.append("f", blob("+more")), IoStatus::kOk);
  ASSERT_EQ(disk.read("f", out), IoStatus::kOk);
  EXPECT_EQ(str(out), "content+more");
  ASSERT_EQ(disk.write("f", blob("new")), IoStatus::kOk);  // replaces
  ASSERT_EQ(disk.read("f", out), IoStatus::kOk);
  EXPECT_EQ(str(out), "new");
  ASSERT_EQ(disk.remove("f"), IoStatus::kOk);
  EXPECT_FALSE(disk.exists("f"));
  EXPECT_EQ(disk.read("f", out), IoStatus::kNotFound);
}

TEST(FileDiskTest, ReplicaStoreRunsUnchangedOnRealFiles) {
  TempDir tmp;
  ASSERT_FALSE(tmp.path().empty());
  FileDisk disk(tmp.path() + "/node0");
  {
    ReplicaStore store(disk, "shard0");
    (void)store.recover();
    ASSERT_TRUE(store.save_checkpoint(3, blob("real-state")));
    ASSERT_TRUE(store.append(blob("real-cmd")));
  }
  FileDisk reopened(tmp.path() + "/node0");
  ReplicaStore store(reopened, "shard0");
  const RecoverResult r = store.recover();
  ASSERT_TRUE(r.has_state);
  EXPECT_EQ(r.position, 3u);
  EXPECT_EQ(str(r.state), "real-state");
  ASSERT_EQ(r.commands.size(), 1u);
  EXPECT_EQ(str(r.commands[0]), "real-cmd");
}

// ---------------------------------------------------------------------------
// EpochStore: strict format, monotonic writes.

TEST(EpochStoreTest, CorruptFileLoadsAsAbsentAndMonotonicGuardHolds) {
  SimDisk disk(30);
  ASSERT_EQ(disk.replace("epoch", blob("not-a-number\n")), IoStatus::kOk);
  EpochStore store(disk, "epoch");
  EXPECT_EQ(store.load(), 0u);  // corrupt ⇒ absent, never a boot stopper
  store.store(10);
  store.store(5);  // lower than cached: must not regress
  EpochStore fresh(disk, "epoch");
  EXPECT_EQ(fresh.load(), 10u);
  EXPECT_EQ(str(contents(disk, "epoch")), "10\n");
}

TEST(EpochStoreTest, EpochWhoseSuccessorOverflowsTheRingIdLoadsAsAbsent) {
  // Ring ids keep 48 epoch bits. Loading 2^48 would make the next ring id
  // wrap to epoch 1; a 23-digit number saturates strtoull to UINT64_MAX and
  // would wrap it to epoch 0. Both reuse a ring id, so both are corrupt.
  for (const char* text : {"281474976710655\n", "281474976710656\n",
                           "99999999999999999999999\n"}) {
    SimDisk disk(31);
    ASSERT_EQ(disk.replace("epoch", blob(text)), IoStatus::kOk);
    EpochStore store(disk, "epoch");
    EXPECT_EQ(store.load(), 0u) << text;
  }
  // The largest epoch whose successor still fits loads as itself.
  SimDisk disk(32);
  ASSERT_EQ(disk.replace("epoch", blob("281474976710654\n")), IoStatus::kOk);
  EpochStore store(disk, "epoch");
  EXPECT_EQ(store.load(), EpochStore::kMaxEpoch);
}

}  // namespace
}  // namespace accelring::storage
