// Client session failover: duplicate suppression, session frames, and the
// end-to-end contract — a client fleet rides through a daemon crash and cold
// restart with zero duplicate and zero lost delivered messages — plus the
// epoch-store guarantee that a cold restart never recreates a ring id.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "check/campaign.hpp"
#include "check/client_fleet.hpp"
#include "check/oracle.hpp"
#include "daemon/failover_client.hpp"
#include "harness/cluster.hpp"
#include "storage/epoch_store.hpp"
#include "storage/file_disk.hpp"
#include "util/bytes.hpp"

namespace accelring {
namespace {

using daemon::decode_session_frame;
using daemon::DuplicateFilter;
using daemon::encode_session_frame;

TEST(DuplicateFilter, FirstObservationIsFresh) {
  DuplicateFilter f;
  EXPECT_FALSE(f.seen(1, 1));
  EXPECT_FALSE(f.seen(1, 2));
  EXPECT_FALSE(f.seen(2, 1));  // other uuid tracked independently
  EXPECT_EQ(f.suppressed(), 0u);
}

TEST(DuplicateFilter, RepeatsAreSuppressed) {
  DuplicateFilter f;
  EXPECT_FALSE(f.seen(7, 1));
  EXPECT_TRUE(f.seen(7, 1));
  EXPECT_TRUE(f.seen(7, 1));
  EXPECT_EQ(f.suppressed(), 2u);
}

TEST(DuplicateFilter, OutOfOrderSeqsStillDeduplicate) {
  DuplicateFilter f;
  EXPECT_FALSE(f.seen(7, 3));
  EXPECT_FALSE(f.seen(7, 1));
  EXPECT_FALSE(f.seen(7, 2));  // floor advances through 1,2,3 now
  EXPECT_TRUE(f.seen(7, 1));
  EXPECT_TRUE(f.seen(7, 2));
  EXPECT_TRUE(f.seen(7, 3));
  EXPECT_FALSE(f.seen(7, 4));
}

TEST(DuplicateFilter, SparseSetIsBoundedByFloorCompaction) {
  DuplicateFilter f;
  // Seq 1 never arrives: the floor stays pinned at 0 while everything above
  // piles into the sparse set — until the compaction bound kicks in.
  const uint64_t n = 4 * DuplicateFilter::kMaxSparse;
  for (uint64_t s = 2; s <= n; ++s) {
    EXPECT_FALSE(f.seen(9, s));
    ASSERT_LE(f.sparse_size(9), DuplicateFilter::kMaxSparse)
        << "sparse set unbounded at seq " << s;
  }
  // The floor jumped over the hole: suppression stays exact for everything
  // actually observed...
  EXPECT_TRUE(f.seen(9, n));
  EXPECT_TRUE(f.seen(9, n - 1));
  // ...and the conceded gap now reads as seen (the documented trade-off).
  EXPECT_TRUE(f.seen(9, 1));
  // Recent contiguous arrivals collapsed into the floor entirely.
  EXPECT_EQ(f.sparse_size(9), 0u);
  EXPECT_FALSE(f.seen(9, n + 1));
}

TEST(SessionFrame, RoundTrips) {
  const auto payload = util::to_vector(util::as_bytes("hello"));
  const auto frame = encode_session_frame(0xABCDEF, 42, payload);
  const auto decoded = decode_session_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->uuid, 0xABCDEFu);
  EXPECT_EQ(decoded->seq, 42u);
  EXPECT_EQ(util::to_vector(decoded->payload), payload);
}

TEST(SessionFrame, RejectsUnframedPayloads) {
  const auto raw = util::to_vector(util::as_bytes("not a frame"));
  EXPECT_FALSE(decode_session_frame(raw).has_value());
  EXPECT_FALSE(decode_session_frame({}).has_value());
}

/// Drives a fleet through one crash + cold restart and returns the verdict.
check::FleetReport crash_restart_run(uint64_t seed, int victim) {
  protocol::ProtocolConfig proto = check::fast_proto_config();
  harness::SimCluster cluster(4, simnet::FabricParams::one_gig(), proto,
                              harness::ImplProfile::kLibrary, seed);
  check::ClusterOracle oracle(4);
  oracle.attach(cluster);
  check::FleetOptions fopt;
  fopt.seed = seed;
  check::ClientFleet fleet(cluster, fopt);
  cluster.start_static();
  fleet.start(util::msec(250));

  cluster.eq().schedule_after(util::msec(80), [&] {
    cluster.crash_node(victim);
    oracle.note_crash(victim);
    fleet.on_crash(victim);
  });
  cluster.eq().schedule_after(util::msec(140), [&] {
    cluster.restart_node(victim);
    oracle.note_restart(victim);
    fleet.on_restart(victim);
  });

  cluster.run_until(util::msec(250) + util::msec(300));
  const harness::ClusterStats stats = cluster.stats();
  oracle.finalize(&stats);
  EXPECT_TRUE(oracle.ok()) << oracle.report();
  return fleet.finalize();
}

TEST(FailoverClient, SurvivesDaemonCrashRestartWithoutDupsOrLoss) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const check::FleetReport report = crash_restart_run(seed, /*victim=*/2);
    EXPECT_TRUE(report.ok) << "seed " << seed << ": "
                           << (report.violations.empty()
                                   ? ""
                                   : report.violations.front().what);
    // The victim's clients connected once, then reconnected after restart.
    EXPECT_GE(report.reconnects,
              static_cast<uint64_t>(4 * 2 + 2)) << "seed " << seed;
    EXPECT_GT(report.sent, 0u);
    EXPECT_GT(report.delivered, 0u);
  }
}

TEST(EpochStore, ColdRestartOfRingCreatorNeverReusesARingId) {
  // Node 0 created the static start ring (epoch 1). Without persisted
  // epochs its cold restart could re-mint ring id (1, 0); the epoch store
  // must push every post-restart ring id strictly past everything seen.
  protocol::ProtocolConfig proto = check::fast_proto_config();
  harness::SimCluster cluster(3, simnet::FabricParams::one_gig(), proto,
                              harness::ImplProfile::kLibrary, 11);
  check::ClusterOracle oracle(3);
  oracle.attach(cluster);

  std::vector<uint64_t> ring_ids;
  cluster.add_on_config(
      [&ring_ids](int node, const protocol::ConfigurationChange& c) {
        if (node == 0 && !c.transitional) ring_ids.push_back(c.config.ring_id);
      });

  cluster.start_static();
  cluster.eq().schedule_after(util::msec(50), [&] {
    cluster.crash_node(0);
    oracle.note_crash(0);
  });
  cluster.eq().schedule_after(util::msec(100), [&] {
    cluster.restart_node(0);
    oracle.note_restart(0);
  });
  cluster.run_until(util::msec(400));

  const harness::ClusterStats stats = cluster.stats();
  oracle.finalize(&stats);
  EXPECT_TRUE(oracle.ok()) << oracle.report();

  // The restarted node delivered at least the initial and one re-formed
  // configuration, all with distinct, strictly increasing epochs.
  ASSERT_GE(ring_ids.size(), 2u);
  for (size_t i = 1; i < ring_ids.size(); ++i) {
    EXPECT_GT(ring_ids[i], ring_ids[i - 1]) << "ring id reused at " << i;
  }
  // The surviving "disk" recorded an epoch past the initial ring's.
  EXPECT_GT(cluster.epoch_store(0).load(), 1u);
}

// spread_daemon's epoch file: storage::EpochStore over a FileDisk. Each
// block is one daemon incarnation (a fresh store over the same directory).
TEST(FileEpochStore, PersistsAcrossReopen) {
  const std::string name = "accelring_epoch_test";
  const std::string path = ::testing::TempDir() + "/" + name;
  storage::FileDisk disk(::testing::TempDir());
  std::remove(path.c_str());
  {
    storage::EpochStore store(disk, name);
    EXPECT_EQ(store.load(), 0u);
    store.store(7);
    store.store(3);  // regressions are ignored
  }
  {
    storage::EpochStore store(disk, name);
    EXPECT_EQ(store.load(), 7u);
    store.store(8);  // a larger epoch replaces the stored one
  }
  {
    storage::EpochStore store(disk, name);
    EXPECT_EQ(store.load(), 8u);
  }
  // The file format is ASCII digits and a newline, nothing else.
  char raw[16] = {};
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  const size_t n = std::fread(raw, 1, sizeof(raw), f);
  std::fclose(f);
  EXPECT_EQ(std::string(raw, n), "8\n");
  std::remove(path.c_str());
}

TEST(FileEpochStore, CorruptFileTreatedAsAbsentAndRecoverable) {
  const std::string name = "accelring_epoch_corrupt";
  const std::string path = ::testing::TempDir() + "/" + name;
  storage::FileDisk disk(::testing::TempDir());
  const auto write_raw = [&](const char* bytes, size_t n) {
    FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes, 1, n, f), n);
    std::fclose(f);
  };
  // A torn prefix of a former "4567\n" must NOT load as 45: a silently
  // lowered epoch floor is the stale-ring-id bug the store exists to close.
  write_raw("45", 2);
  {
    storage::EpochStore store(disk, name);
    EXPECT_EQ(store.load(), 0u);
  }
  write_raw("not-a-number\n", 13);
  {
    storage::EpochStore store(disk, name);
    EXPECT_EQ(store.load(), 0u);
  }
  write_raw("", 0);
  {
    storage::EpochStore store(disk, name);
    EXPECT_EQ(store.load(), 0u);
  }
  // Round trip: a store that loaded a corrupt file re-mints and persists a
  // fresh epoch, and the next incarnation reads it back cleanly.
  write_raw("12garbage\n", 10);
  {
    storage::EpochStore store(disk, name);
    EXPECT_EQ(store.load(), 0u);
    store.store(9);
  }
  {
    storage::EpochStore store(disk, name);
    EXPECT_EQ(store.load(), 9u);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace accelring
