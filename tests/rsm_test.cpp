// Tests for the replicated-state-machine library: identical state under
// concurrency and loss, snapshot state transfer to late joiners, and
// primary-side reconciliation after partition merges.
#include <gtest/gtest.h>

#include <map>

#include "harness/cluster.hpp"
#include "rsm/replica.hpp"
#include "util/bytes.hpp"

namespace accelring::rsm {
namespace {

using harness::ImplProfile;
using harness::SimCluster;

/// Test state machine: a map<uint32, int64> with add operations.
class KvMachine final : public StateMachine {
 public:
  void apply(std::span<const std::byte> command) override {
    util::Reader r(command);
    const uint32_t key = r.u32();
    const int64_t delta = r.i64();
    if (r.done()) values_[key] += delta;
  }
  [[nodiscard]] std::vector<std::byte> snapshot() const override {
    util::Writer w(16 * values_.size() + 4);
    w.u32(static_cast<uint32_t>(values_.size()));
    for (const auto& [k, v] : values_) {
      w.u32(k);
      w.i64(v);
    }
    return std::move(w).take();
  }
  void restore(std::span<const std::byte> snapshot) override {
    values_.clear();
    util::Reader r(snapshot);
    const uint32_t n = r.u32();
    for (uint32_t i = 0; i < n && r.ok(); ++i) {
      const uint32_t k = r.u32();
      values_[k] = r.i64();
    }
  }
  [[nodiscard]] const std::map<uint32_t, int64_t>& values() const {
    return values_;
  }

 private:
  std::map<uint32_t, int64_t> values_;
};

std::vector<std::byte> add_command(uint32_t key, int64_t delta) {
  util::Writer w(12);
  w.u32(key);
  w.i64(delta);
  return std::move(w).take();
}

/// SimCluster with one Replica+KvMachine per node.
struct RsmCluster {
  SimCluster cluster;
  std::vector<std::unique_ptr<KvMachine>> machines;
  std::vector<std::unique_ptr<Replica>> replicas;

  RsmCluster(int n, protocol::ProtocolConfig cfg, uint64_t seed,
             bool founders = true, ReplicaOptions options = {})
      : cluster(n, simnet::FabricParams::one_gig(), cfg,
                ImplProfile::kLibrary, seed) {
    for (int i = 0; i < n; ++i) {
      machines.push_back(std::make_unique<KvMachine>());
      auto submit = [this, i](std::vector<std::byte> payload) {
        return cluster.engine(i).submit(protocol::Service::kAgreed,
                                        std::move(payload));
      };
      replicas.push_back(std::make_unique<Replica>(
          static_cast<protocol::ProcessId>(i), *machines[i], submit,
          founders, options));
    }
    cluster.set_on_deliver(
        [this](int node, const protocol::Delivery& d, protocol::Nanos) {
          replicas[node]->on_delivery(d);
        });
    cluster.set_on_config(
        [this](int node, const protocol::ConfigurationChange& c) {
          replicas[node]->on_configuration(c);
        });
  }

  void propose(int node, uint32_t key, int64_t delta) {
    cluster.eq().schedule(cluster.eq().now(), [this, node, key, delta] {
      replicas[node]->submit(add_command(key, delta));
    });
  }
};

protocol::ProtocolConfig fast_cfg() {
  protocol::ProtocolConfig cfg;
  cfg.timeouts.token_loss = util::msec(30);
  cfg.timeouts.join = util::msec(5);
  cfg.timeouts.consensus = util::msec(60);
  return cfg;
}

TEST(Rsm, ReplicasConvergeUnderConcurrencyAndLoss) {
  RsmCluster rc(5, fast_cfg(), 3);
  rc.cluster.net().set_loss_rate(0.02);
  rc.cluster.start_static();
  for (int i = 0; i < 200; ++i) {
    rc.cluster.eq().schedule(util::usec(50) + i * util::usec(40),
                             [&rc, i] {
                               rc.replicas[i % 5]->submit(
                                   add_command(i % 7, (i % 13) - 6));
                             });
  }
  rc.cluster.run_until(util::sec(3));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(rc.replicas[i]->stats().applied, 200u) << "replica " << i;
    EXPECT_EQ(rc.machines[i]->values(), rc.machines[0]->values())
        << "replica " << i;
    EXPECT_EQ(rc.replicas[i]->stats().divergence_detected, 0u);
  }
}

TEST(Rsm, LateJoinerCatchesUpViaSnapshot) {
  RsmCluster rc(4, fast_cfg(), 7, /*founders=*/false);
  // Nodes 0-2 bootstrap as founders; node 3 starts 200 ms later and must
  // receive a snapshot.
  for (int i = 0; i < 3; ++i) {
    rc.replicas[i] = std::make_unique<Replica>(
        static_cast<protocol::ProcessId>(i), *rc.machines[i],
        [&rc, i](std::vector<std::byte> p) {
          return rc.cluster.engine(i).submit(protocol::Service::kAgreed,
                                             std::move(p));
        },
        /*founder=*/true);
  }
  rc.cluster.net().set_host_down(3, true);
  for (int i = 0; i < 3; ++i) {
    rc.cluster.process(i).run_soon(
        [&rc, i] { rc.cluster.engine(i).start_discovery(); });
  }
  // Pre-join history.
  for (int i = 0; i < 60; ++i) {
    rc.cluster.eq().schedule(util::msec(30) + i * util::msec(1), [&rc, i] {
      rc.replicas[i % 3]->submit(add_command(i % 5, 10));
    });
  }
  rc.cluster.eq().schedule(util::msec(200), [&rc] {
    rc.cluster.net().set_host_down(3, false);
    rc.cluster.process(3).run_soon(
        [&rc] { rc.cluster.engine(3).start_discovery(); });
  });
  // Post-join traffic.
  for (int i = 0; i < 40; ++i) {
    rc.cluster.eq().schedule(util::msec(800) + i * util::msec(1), [&rc, i] {
      rc.replicas[i % 3]->submit(add_command(i % 5, 1));
    });
  }
  rc.cluster.run_until(util::sec(4));

  ASSERT_TRUE(rc.replicas[3]->initialized());
  EXPECT_EQ(rc.replicas[3]->stats().snapshots_restored, 1u);
  // The joiner's state equals the founders' despite missing the first 60
  // commands as deliveries.
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(rc.machines[i]->values(), rc.machines[0]->values())
        << "replica " << i;
  }
  EXPECT_FALSE(rc.machines[3]->values().empty());
  // Exactly one veteran shipped state.
  uint64_t snapshots = 0;
  for (int i = 0; i < 4; ++i) {
    snapshots += rc.replicas[i]->stats().snapshots_sent;
  }
  EXPECT_EQ(snapshots, 1u);
}

TEST(Rsm, PartitionMergeReconcilesToLowestSide) {
  RsmCluster rc(6, fast_cfg(), 11);
  rc.cluster.start_static();
  rc.cluster.run_until(util::msec(30));

  // Partition {0,1,2} | {3,4,5}; both sides keep mutating key 1.
  rc.cluster.eq().schedule(util::msec(40), [&rc] {
    for (int i = 0; i < 6; ++i) {
      rc.cluster.net().set_partition(i, i < 3 ? 0 : 1);
    }
  });
  for (int i = 0; i < 30; ++i) {
    rc.cluster.eq().schedule(util::msec(120) + i * util::msec(2), [&rc, i] {
      rc.replicas[0]->submit(add_command(1, 100));   // side A
      rc.replicas[3]->submit(add_command(1, -1));    // side B diverges
    });
  }
  rc.cluster.eq().schedule(util::msec(400), [&rc] { rc.cluster.net().heal(); });
  // Keep traffic flowing so the merge is detected, then settle.
  for (int i = 0; i < 50; ++i) {
    rc.cluster.eq().schedule(util::msec(410) + i * util::msec(4), [&rc, i] {
      rc.replicas[i % 6]->submit(add_command(2, 1));
    });
  }
  rc.cluster.run_until(util::sec(4));

  // Everyone converged to identical state...
  for (int i = 1; i < 6; ++i) {
    EXPECT_EQ(rc.machines[i]->values(), rc.machines[0]->values())
        << "replica " << i;
  }
  // ...and the authoritative lineage is side A's (positive key-1 total:
  // side B's divergent decrements were discarded at the merge).
  ASSERT_TRUE(rc.machines[0]->values().contains(1));
  EXPECT_GT(rc.machines[0]->values().at(1), 0);
  // The old side-B replicas adopted a snapshot.
  uint64_t adopted = 0;
  for (int i = 3; i < 6; ++i) {
    adopted += rc.replicas[i]->stats().snapshots_restored;
  }
  EXPECT_GE(adopted, 3u);
}

TEST(Rsm, ContinuousAuditDetectsNoDivergenceInHealthyRuns) {
  // Force extra membership changes (crash) and verify the snapshot audits
  // never fire divergence.
  RsmCluster rc(5, fast_cfg(), 13);
  rc.cluster.start_static();
  for (int i = 0; i < 100; ++i) {
    rc.cluster.eq().schedule(util::msec(5) + i * util::msec(2), [&rc, i] {
      if (!rc.cluster.net().host_down(i % 5)) {
        rc.replicas[i % 5]->submit(add_command(i % 3, 5));
      }
    });
  }
  rc.cluster.eq().schedule(util::msec(80), [&rc] {
    rc.cluster.net().set_host_down(4, true);
  });
  rc.cluster.run_until(util::sec(3));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rc.replicas[i]->stats().divergence_detected, 0u)
        << "replica " << i;
    EXPECT_EQ(rc.machines[i]->values(), rc.machines[0]->values());
  }
}

TEST(Rsm, StateTransferIsChunkedAtTheConfiguredBound) {
  // Tiny chunks force a wide multi-frame transfer: with ~1 KiB of state and
  // 128-byte chunks the sender must ship many frames, none above the bound.
  ReplicaOptions opt;
  opt.max_chunk_bytes = 128;
  opt.checkpoint_interval = 16;
  RsmCluster rc(4, fast_cfg(), 17, /*founders=*/false, opt);
  for (int i = 0; i < 3; ++i) {
    rc.replicas[i] = std::make_unique<Replica>(
        static_cast<protocol::ProcessId>(i), *rc.machines[i],
        [&rc, i](std::vector<std::byte> p) {
          return rc.cluster.engine(i).submit(protocol::Service::kAgreed,
                                             std::move(p));
        },
        /*founder=*/true, opt);
  }
  rc.cluster.net().set_host_down(3, true);
  for (int i = 0; i < 3; ++i) {
    rc.cluster.process(i).run_soon(
        [&rc, i] { rc.cluster.engine(i).start_discovery(); });
  }
  // ~90 distinct keys -> a checkpoint far larger than one chunk.
  for (int i = 0; i < 90; ++i) {
    rc.cluster.eq().schedule(util::msec(30) + i * util::msec(1), [&rc, i] {
      rc.replicas[i % 3]->submit(add_command(static_cast<uint32_t>(i), 7));
    });
  }
  rc.cluster.eq().schedule(util::msec(250), [&rc] {
    rc.cluster.net().set_host_down(3, false);
    rc.cluster.process(3).run_soon(
        [&rc] { rc.cluster.engine(3).start_discovery(); });
  });
  rc.cluster.run_until(util::sec(4));

  ASSERT_TRUE(rc.replicas[3]->initialized());
  EXPECT_GE(rc.replicas[3]->stats().snapshots_restored, 1u);
  uint64_t chunks = 0;
  uint64_t bytes = 0;
  for (int i = 0; i < 3; ++i) {
    chunks += rc.replicas[i]->stats().chunks_sent;
    bytes += rc.replicas[i]->stats().snapshot_bytes;
  }
  EXPECT_GT(chunks, 3u) << "transfer was not split into multiple chunks";
  EXPECT_GT(bytes, 3u * 128u);
  EXPECT_EQ(rc.machines[3]->values(), rc.machines[0]->values());
  // Compaction ran: the retained log never outgrows one interval.
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(rc.replicas[i]->stats().checkpoints, 0u);
    EXPECT_LE(rc.replicas[i]->retained_log_size(), opt.checkpoint_interval);
  }
}

/// A deliberately non-deterministic machine: applies every delta doubled,
/// so its state silently drifts from its peers'.
class FaultyMachine final : public StateMachine {
 public:
  void apply(std::span<const std::byte> command) override {
    util::Reader r(command);
    const uint32_t key = r.u32();
    const int64_t delta = r.i64();
    if (r.done()) values_[key] += 2 * delta;
  }
  [[nodiscard]] std::vector<std::byte> snapshot() const override {
    util::Writer w(16 * values_.size() + 4);
    w.u32(static_cast<uint32_t>(values_.size()));
    for (const auto& [k, v] : values_) {
      w.u32(k);
      w.i64(v);
    }
    return std::move(w).take();
  }
  void restore(std::span<const std::byte> snapshot) override {
    values_.clear();
    util::Reader r(snapshot);
    const uint32_t n = r.u32();
    for (uint32_t i = 0; i < n && r.ok(); ++i) {
      const uint32_t k = r.u32();
      values_[k] = r.i64();
    }
  }

 private:
  std::map<uint32_t, int64_t> values_;
};

TEST(Rsm, BoundaryAuditCatchesNondeterministicStateMachine) {
  // Node 1 runs a machine that applies commands differently. The drift is
  // invisible until a membership change triggers a transfer: the sender's
  // boundary CRC then disagrees with node 1's own boundary capture, and the
  // continuous audit must flag divergence.
  RsmCluster rc(4, fast_cfg(), 19, /*founders=*/false);
  FaultyMachine faulty;
  for (int i = 0; i < 3; ++i) {
    StateMachine& machine =
        i == 1 ? static_cast<StateMachine&>(faulty) : *rc.machines[i];
    rc.replicas[i] = std::make_unique<Replica>(
        static_cast<protocol::ProcessId>(i), machine,
        [&rc, i](std::vector<std::byte> p) {
          return rc.cluster.engine(i).submit(protocol::Service::kAgreed,
                                             std::move(p));
        },
        /*founder=*/true);
  }
  rc.cluster.net().set_host_down(3, true);
  for (int i = 0; i < 3; ++i) {
    rc.cluster.process(i).run_soon(
        [&rc, i] { rc.cluster.engine(i).start_discovery(); });
  }
  for (int i = 0; i < 50; ++i) {
    rc.cluster.eq().schedule(util::msec(30) + i * util::msec(1), [&rc, i] {
      rc.replicas[i % 3]->submit(add_command(i % 5, 3));
    });
  }
  rc.cluster.eq().schedule(util::msec(200), [&rc] {
    rc.cluster.net().set_host_down(3, false);
    rc.cluster.process(3).run_soon(
        [&rc] { rc.cluster.engine(3).start_discovery(); });
  });
  rc.cluster.run_until(util::sec(4));

  uint64_t divergence = 0;
  for (int i = 0; i < 4; ++i) {
    divergence += rc.replicas[i]->stats().divergence_detected;
  }
  EXPECT_GE(divergence, 1u)
      << "non-deterministic replica escaped the boundary audit";
}

TEST(Rsm, MetricsBindingMirrorsStatsWithoutPerturbingTheRun) {
  // Identical seeded runs, one of which copies its replicas' stats into a
  // registry mid-run: final state and stats must match exactly (a copy
  // only reads), and the registry must hold the summed stats.
  auto drive = [](obs::MetricsRegistry* registry,
                  std::map<uint32_t, int64_t>& out, ReplicaStats& stats) {
    ReplicaOptions opt;
    opt.checkpoint_interval = 32;  // low enough that 120 commands checkpoint
    RsmCluster rc(3, fast_cfg(), 23, /*founders=*/true, opt);
    rc.cluster.start_static();
    for (int i = 0; i < 120; ++i) {
      rc.cluster.eq().schedule(util::usec(80) + i * util::usec(60), [&rc, i] {
        rc.replicas[i % 3]->submit(add_command(i % 9, i));
      });
    }
    rc.cluster.run_until(util::msec(5));
    if (registry != nullptr) {
      obs::MetricsRegistry mid;  // thrown away: the copy only has to happen
      for (const auto& replica : rc.replicas) {
        add_counters(mid, replica->stats());
      }
    }
    rc.cluster.run_until(util::sec(2));
    out = rc.machines[0]->values();
    stats = rc.replicas[0]->stats();
    if (registry != nullptr) {
      for (const auto& replica : rc.replicas) {
        add_counters(*registry, replica->stats());
      }
    }
  };

  std::map<uint32_t, int64_t> plain_state, copied_state;
  ReplicaStats plain_stats, copied_stats;
  obs::MetricsRegistry registry;
  drive(nullptr, plain_state, plain_stats);
  drive(&registry, copied_state, copied_stats);

  EXPECT_EQ(plain_state, copied_state);
  EXPECT_EQ(plain_stats.applied, copied_stats.applied);
  EXPECT_EQ(plain_stats.proposed, copied_stats.proposed);
  EXPECT_EQ(plain_stats.checkpoints, copied_stats.checkpoints);

  // The registry holds the summed stats of all three replicas.
  const obs::Counter* applied = registry.find_counter("rsm", "applied");
  ASSERT_NE(applied, nullptr);
  EXPECT_EQ(applied->value(), 3 * copied_stats.applied);
  const obs::Counter* checkpoints =
      registry.find_counter("rsm", "checkpoints");
  ASSERT_NE(checkpoints, nullptr);
  EXPECT_GT(checkpoints->value(), 0u);
}

}  // namespace
}  // namespace accelring::rsm
